"""Every argv of the contract table run through the CLI, one JSON record
each, so that two trees can be compared output for output.

    python tests/argv_outputs.py OUT.jsonl

writes, for each argv, its exit code, stdout, stderr and the bytes of any
file it wrote, from an in-process ``widthlab.cli.run`` with ``COLUMNS=80``
and every ``RuntimeWarning`` raised as an error.

    python tests/argv_outputs.py --compare A.jsonl B.jsonl

matches the records of two such files by argv, prints how many are
identical, how many differ and how many exist in one file only, names each
differing argv with its differing fields and each unmatched argv, and exits
1 on any difference.
The inputs live in a temporary directory whose path each record spells
``<inputs>``, so runs against two ``src`` trees on ``PYTHONPATH`` give
records that differ only where the CLI does.

The argvs are every combination of the candidates of ``command_table`` (the
``SIZED`` values where a slot has none), then each ``HOSTILE`` value alone
in each slot with the other slots at their first candidate, all with and
without ``--json``, then ``--help`` for the top level and each subcommand.
"""

import collections
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

os.environ["COLUMNS"] = "80"  # argparse wraps help text to this width

from widthlab.cli import run  # noqa: E402

from test_contract import HOSTILE, SIZED, command_table, write_inputs  # noqa: E402


def argvs(table: dict, names) -> list:
    """The argv list for the subcommands ``names`` of ``table``."""
    out = []
    for name in names:
        positional, options = table[name]
        slots = dict(enumerate(positional), **options)
        candidates = {k: SIZED[k] if c is None else c for k, c in slots.items()}

        def argv(values):
            return ([name] + [values[i] for i in range(len(positional))]
                    + [f"{k}={values[k]}" for k in options])

        rows = [dict(zip(slots, combo)) for combo in itertools.product(*candidates.values())]
        for k in slots:
            rows += [{**{s: c[0] for s, c in candidates.items()}, k: bad}
                     for bad in (HOSTILE[:-1] if k in SIZED else HOSTILE)]
        out += [argv(values) + flag for values in rows for flag in ([], ["--json"])]
    return out + [[name, "--help"] for name in names]


def record(argv: list, d: Path) -> dict:
    """Exit code, output and written files of one in-process run in ``d``."""
    before = set(d.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # a leaked warning is an internal error (exit 2) in every record that
        # leaks it, as under pytest, not printed once for the first of them
        warnings.simplefilter("error", RuntimeWarning)
        code = run(argv)
    written = {}
    for path in sorted(set(d.iterdir()) - before):
        written[path.name] = path.read_bytes().decode("latin-1")
        path.unlink()
    inputs = str(d)
    return {"argv": [a.replace(inputs, "<inputs>") for a in argv], "code": code,
            "stdout": out.getvalue().replace(inputs, "<inputs>"),
            "stderr": err.getvalue().replace(inputs, "<inputs>"), "files": written}


def records(d: Path, names=None):
    """Records of the whole table (or of the subcommands ``names``), with
    the inputs written to ``d``; the top-level ``--help`` comes only with
    the whole table."""
    table = command_table(write_inputs(d))
    table_argvs = argvs(table, list(table) if names is None else names)
    for argv in table_argvs + ([["--help"]] if names is None else []):
        yield record(argv, d)


def main(path: str) -> None:
    with tempfile.TemporaryDirectory() as tmp, open(path, "w", encoding="utf-8") as fh:
        for rec in records(Path(tmp)):
            fh.write(json.dumps(rec) + "\n")


def keyed(path: str) -> dict:
    """The records of a file keyed by ``(argv, i)`` for the ``i``-th record
    of that argv, so a repeated argv is matched repeat by repeat."""
    out, seen = {}, collections.Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            argv = tuple(rec["argv"])
            out[argv, seen[argv]] = rec
            seen[argv] += 1
    return out


def compare(path_a: str, path_b: str) -> int:
    """Report how the records of two files differ; 1 if they do, else 0."""
    a, b = keyed(path_a), keyed(path_b)

    def label(key) -> str:
        argv, i = key
        return json.dumps(list(argv)) + (f" (repeat {i})" if i else "")

    shared = [k for k in a if k in b]
    differ = [k for k in shared if a[k] != b[k]]
    only = [(path_a, [k for k in a if k not in b]), (path_b, [k for k in b if k not in a])]
    print(f"identical: {len(shared) - len(differ)}, differing: {len(differ)}, "
          + ", ".join(f"only in {path}: {len(keys)}" for path, keys in only))
    for k in differ:
        fields = sorted(f for f in a[k].keys() | b[k].keys() if a[k].get(f) != b[k].get(f))
        print(f"differs: {label(k)}: {', '.join(fields)}")
    for path, keys in only:
        for k in keys:
            print(f"only in {path}: {label(k)}")
    return 1 if differ or any(keys for _, keys in only) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    main(sys.argv[1])
