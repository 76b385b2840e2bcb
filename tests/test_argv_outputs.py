"""``tests/argv_outputs.py``, the recorder of the CLI's output over the
contract table, run for the ``rigid`` subcommand alone."""

import json

from argv_outputs import records


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
