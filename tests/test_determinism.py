"""The same input gives the same report in any process, apart from timings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fptmix
from fptmix import cli

# runs each argv list through ``cli.main`` in one process; prints the exit
# codes and stdout texts as one JSON list
RUNNER = """
import contextlib, io, json, sys
from fptmix import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def _run_under_hash_seed(seed: str, commands: list) -> list:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(Path(fptmix.__file__).parent.parent),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def _without_timings(code: int, text: str):
    report = json.loads(text)
    if isinstance(report, list):  # bench rows
        return code, [{key: v for key, v in row.items() if key != "seconds"} for row in report]
    return code, {key: v for key, v in report.items() if key != "timings"}


def test_reports_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    """String hashing changes with ``PYTHONHASHSEED``; no verdict, witness or
    trace counter may follow it.  One generated document per solver, solved
    and run as one bench suite, under hash seeds 0 and 1."""
    rows = []
    for problem, kind, extra, k, W in (("kiob", "digraph", ["--plant", "4"], 4, None),
                                       ("kpath", "digraph", [], 5, 40),
                                       ("p2p", "graph", ["--plant", "2"], 2, None),
                                       ("wsp", "setfamily", ["--plant", "2", "--sets", "14"], 2,
                                        None)):
        code = cli.main(["gen", kind, "--n", "9", "--seed", "3", *extra])
        generated = json.loads(capsys.readouterr().out)
        assert code == 0
        if problem == "wsp":
            W = generated["certificate"]["weight"]
        rows.append({"problem": problem, "instance": generated.get("instance", generated),
                     "k": k, "W": W})
    commands = []
    for row in rows:
        path = tmp_path / f"{row['problem']}.json"
        path.write_text(json.dumps(row["instance"]))
        weight = [] if row["W"] is None else ["--W", str(row["W"])]
        commands.append(["solve", row["problem"], str(path), "--k", str(row["k"]), *weight])
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": rows}))
    commands.append(["bench", str(suite), "--format", "json"])

    first, second = (_run_under_hash_seed(seed, commands) for seed in ("0", "1"))
    first = [_without_timings(*run) for run in first]
    assert [code for code, _ in first[:4]] == [0, 0, 0, 0], first
    assert all(row["verdict"] == "accept" and row["match"] for row in first[4][1])
    assert any(report["reductions"] for _, report in first[:4])
    assert first == [_without_timings(*run) for run in second]
