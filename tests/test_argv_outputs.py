"""``tests/argv_outputs.py``, the recorder of the CLI's output over the
contract table, run for the ``rigid`` subcommand alone and for the whole
table, and its compare mode on two tiny record files."""

import json

from argv_outputs import compare, records


def test_rigid_records(tmp_path):
    recs = list(records(tmp_path, ["rigid"]))
    # 2 specs x 1 norm bound, then each of 11 hostile values in each of the
    # 2 slots, all with and without --json; then --help
    assert len(recs) == 2 * (2 + 2 * 11) + 1
    assert all(rec["code"] in (0, 1) and rec["files"] == {} for rec in recs)
    assert str(tmp_path) not in json.dumps(recs)
    good, good_json = recs[0], recs[1]
    assert good["argv"] == ["rigid", "--spec=<inputs>/good.json", "--norm-bound=10"]
    assert (good["code"], good["stderr"]) == (0, "")
    assert good["stdout"].splitlines() == [
        "identity only:   True", "admissible maps: 1", "norm threshold:  9.9999999999999982",
        "edge graph:      out-degree min 2, in-degree max 1"]
    assert json.loads(good_json["stdout"])["identity_only"] is True
    assert recs[-1]["argv"] == ["rigid", "--help"] and recs[-1]["code"] == 0
    assert recs[-1]["stdout"].startswith("usage: widthlab rigid")


def test_every_record_of_the_table_exits_0_or_1(tmp_path):
    # a record raises a leaked RuntimeWarning, which the CLI reports as an
    # internal error, exit 2
    recs = list(records(tmp_path))
    assert [(rec["argv"], rec["stderr"]) for rec in recs if rec["code"] not in (0, 1)] == []
    assert {rec["code"] for rec in recs} == {0, 1}


def write_records(path, recs):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    return str(path)


def test_compare(tmp_path, capsys):
    rec = {"argv": ["widths", "A.mat"], "code": 0, "stdout": "s\n", "stderr": "", "files": {}}
    recs = [rec, {**rec, "argv": ["factor"]}, {**rec, "argv": ["rigid"]}, rec]
    a = write_records(tmp_path / "a.jsonl", recs)
    assert compare(a, a) == 0
    assert capsys.readouterr().out == (
        f"identical: 4, differing: 0, only in {a}: 0, only in {a}: 0\n")
    # the repeat of widths now differs in two fields; rigid is gone, range-equiv new
    b = write_records(tmp_path / "b.jsonl", [
        rec, {**rec, "argv": ["factor"]}, {**rec, "argv": ["range-equiv"]},
        {**rec, "code": 1, "stderr": "error: x\n"}])
    assert compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"identical: 2, differing: 1, only in {a}: 1, only in {b}: 1",
        'differs: ["widths", "A.mat"] (repeat 1): code, stderr',
        f'only in {a}: ["rigid"]',
        f'only in {b}: ["range-equiv"]',
    ]
