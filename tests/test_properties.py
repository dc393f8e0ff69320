"""Each randomized suite, run on its own for quicker attribution."""

import property_suites as ps


def test_snf_contracts():
    assert ps.suite_snf_contracts() == []


def test_unstable_routes():
    assert ps.suite_unstable_routes() == []


def test_triangle_exactness():
    assert ps.suite_triangle_exactness() == []


def test_normalized_group_merges_coprime_orders():
    assert ps.normalized_group(0, (6, 4)) == ps.FgAbGroup(0, (2, 12))


def test_reduce_invariance():
    assert ps.suite_reduce_invariance() == []


def test_product_verdicts():
    assert ps.suite_product_verdicts() == []


def test_gms_fantastack_roundtrip():
    assert ps.suite_gms_fantastack_roundtrip() == []


def test_monoid_iso_bruteforce():
    assert ps.suite_monoid_iso_bruteforce() == []


def test_gerbe_reference():
    assert ps.suite_gerbe_reference() == []
