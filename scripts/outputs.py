"""Byte-identity sweep: every command on every fixture, recorded verbatim.

Run from the repository root (the test suite does not collect this file):

    PYTHONPATH=src python3 scripts/outputs.py [--out FILE]

It calls ``stackyfans.cli.run_command`` in-process on every command x
fixture (``fixtures/*.json``) x {text, ``--json``}.  On ``present``,
``moduli`` and ``gerbe`` it also varies ``--zeros`` over no flag and the
values in ``ZEROS``: 2352 runs on the 15 commands and 28 fixtures.  It
writes one JSON object, one run per line, mapping each argv (joined by
spaces, fixture paths relative to the root) to [exit code, stdout text,
stderr text].

Equal files mean that every run printed the same bytes and exited with the
same code.  ``fixtures/golden/outputs.json`` holds the sweep of the
current code, and a Tier-1 test reruns the sweep in-process against it;
write the file anew with ``--out fixtures/golden/outputs.json`` when an
output changes on purpose, and diff it to see which runs changed.  The
script imports the package from the ``src`` directory next to it, so each
checkout sweeps its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stackyfans.cli import _COMMANDS, run_command  # noqa: E402

ZEROS = ("1", "2", "3", "1,2", "2,3", "1,3", "1,2,3", "0", "9")
WITH_ZEROS = ("present", "moduli", "gerbe")


def _argvs() -> list[list[str]]:
    fixtures = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "fixtures").glob("*.json"))
    argvs = []
    for command in _COMMANDS:
        zeros = [[]]
        if command in WITH_ZEROS:
            zeros += [["--zeros", z] for z in ZEROS]
        for fixture in fixtures:
            for z in zeros:
                for mode in ([], ["--json"]):
                    argvs.append([command, "--input", fixture] + z + mode)
    return argvs


def _run(argv: list[str]) -> list:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_command(argv)
    return [code, out.getvalue(), err.getvalue()]


def sweep() -> dict[str, list]:
    """Every run, keyed by its argv joined by spaces; call it from the root."""
    return {" ".join(argv): _run(argv) for argv in _argvs()}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the JSON here instead of stdout")
    args = p.parse_args()
    out_path = Path(args.out).resolve() if args.out else None
    # fixture paths appear in stderr, so run from the root with relative paths
    os.chdir(ROOT)
    results = sweep()
    text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                              for k, v in results.items()) + "\n}\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.write_text(text, encoding="utf-8")
    print(f"{len(results)} runs", file=sys.stderr)


if __name__ == "__main__":
    main()
