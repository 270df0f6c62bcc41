"""CLI surface tests: flag wiring, report shape, determinism, error paths."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from edgewise.cli import main
from edgewise.experiments import connectivity_experiment, gen_graph
from edgewise.samplespace import build_kwise, dump_support


SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env():
    """Environment whose PYTHONPATH puts this checkout's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text_round_trip(capsys, tmp_path):
    code, out, err = run_main(capsys, "gen", "--family", "cycle", "--params", "length=6")
    assert code == 0
    assert out == gen_graph("cycle", {"length": 6}).to_text()
    summary = json.loads(err)
    assert summary["girth"] == 6
    assert summary["generator"] == "cycle(length=6)"


def test_gen_json_to_file(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, out, _ = run_main(
        capsys, "gen", "--family", "theta", "--params", "lengths=2:3:4",
        "--json", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    blob = json.loads(out_file.read_text())
    assert len(blob["edges"]) == 9


def test_connectivity_report_matches_library(capsys):
    code, out, _ = run_main(
        capsys, "connectivity", "--family", "multi_cycle",
        "--params", "length=2,copies=4", "--k", "3",
    )
    assert code == 0
    blob = json.loads(out)
    g = gen_graph("multi_cycle", {"length": 2, "copies": 4})
    want = connectivity_experiment(
        g, build_kwise(8, 3), generator="multi_cycle(copies=4,length=2)"
    )
    assert blob == json.loads(want.to_json())


def test_csv_mirror_of_rates(capsys, tmp_path):
    csv_file = tmp_path / "rates.csv"
    code, out, _ = run_main(
        capsys, "cyclefree", "--family", "cycle", "--params", "length=5",
        "--k", "5", "--csv", str(csv_file),
    )
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "rate,value"
    rates = dict(line.split(",") for line in lines[1:])
    assert rates["acyclic"] == "31/32"
    assert rates["success"] == "15/16"


def test_unique_cut_flags(capsys):
    code, out, _ = run_main(
        capsys, "unique-cut", "--family", "dumbbell", "--params", "left=1,right=1",
        "--k", "2", "--edges", "1",
    )
    assert code == 0
    assert json.loads(out)["rates"]["success"] == "1/2"


def test_unique_cut_non_cut_is_an_error(capsys):
    code, out, err = run_main(
        capsys, "unique-cut", "--family", "cycle", "--params", "length=4",
        "--k", "2", "--edges", "1",
    )
    assert code == 2
    assert "not a cut" in err
    assert out == ""


def test_seed_param_key_is_an_error(capsys):
    # the generator seed is --gen-seed; a seed key in --params is rejected
    code, out, err = run_main(
        capsys, "gen", "--family", "expander_like", "--params", "vertices=6,degree=4,seed=3",
    )
    assert code == 2
    assert "'seed'" in err and "allowed: vertices, degree" in err
    assert out == ""


def test_unknown_family_is_an_error(capsys):
    code, _, err = run_main(capsys, "gen", "--family", "petersen")
    assert code == 2
    assert "error:" in err


def test_sparsify_constants_file_with_flag_override(capsys, tmp_path):
    knobs = tmp_path / "knobs.json"
    knobs.write_text(json.dumps({"k": 2, "epsilon": 0.9, "delta": 0.45, "rate_scale": 1.0}))
    code, out, _ = run_main(
        capsys, "sparsify", "--family", "cycle", "--params", "length=5",
        "--constants", str(knobs),
    )
    assert code == 0
    assert json.loads(out)["rates"]["success"] == "1/1"
    # same file, but the explicit flag forces real subsampling on a dumbbell
    code, out, _ = run_main(
        capsys, "sparsify", "--family", "dumbbell", "--params", "left=5,right=5",
        "--constants", str(knobs), "--rate-scale", "5e-4",
    )
    assert code == 0
    assert json.loads(out)["rates"]["success"] == "3/8"


@pytest.mark.parametrize("pipeline", ["sparsify", "reweight"])
def test_pipeline_delta_from_file_matches_flag(capsys, tmp_path, pipeline):
    knobs = tmp_path / "knobs.json"
    knobs.write_text(json.dumps({"delta": "1/3"}))
    graph = ("--family", "cycle", "--params", "length=5")
    code, from_file, err = run_main(capsys, pipeline, *graph, "--constants", str(knobs))
    assert code == 0, err
    code, from_flag, err = run_main(capsys, pipeline, *graph, "--delta", "1/3")
    assert code == 0, err
    assert from_file == from_flag
    code, default, _ = run_main(capsys, pipeline, *graph)
    assert code == 0
    assert default != from_flag


def test_reweight_pipeline_subcommand(capsys):
    code, out, _ = run_main(
        capsys, "reweight", "--family", "multi_cycle", "--params", "length=2,copies=8",
        "--k", "2", "--rate-scale", "5.75e-3",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["rates"]["success"] == "31/32"
    assert blob["rates"]["union_bound_floor"] == "3/4"


def test_reweight_rejects_trees(capsys):
    code, _, err = run_main(
        capsys, "reweight", "--family", "dumbbell", "--params", "left=1,right=1",
    )
    assert code == 2
    assert "minimum cut" in err


def test_find_basis_graphic(capsys):
    code, out, _ = run_main(
        capsys, "find-basis", "--family", "complete", "--params", "vertices=4",
        "--kind", "graphic",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["rank"] == 3
    assert len(blob["basis"]) == 3
    assert blob["verified"] is True
    assert blob["mode"] == "derandomized"
    assert blob["generator"] == "complete(vertices=4)"


def test_find_basis_constants_override(capsys, tmp_path):
    knobs = tmp_path / "c.json"
    knobs.write_text(json.dumps({"girth_mult": 1.0}))
    code, out, _ = run_main(
        capsys, "find-basis", "--family", "cycle", "--params", "length=6",
        "--kind", "graphic", "--constants", str(knobs),
    )
    assert code == 0
    assert json.loads(out)["constants_used"]["girth_mult"] == 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"girth": 3}))
    code, _, err = run_main(
        capsys, "find-basis", "--family", "cycle", "--params", "length=6",
        "--kind", "graphic", "--constants", str(bad),
    )
    assert code == 2
    assert "unknown constants" in err


def test_find_basis_starved_harvest_exits_distinctly(capsys):
    # sparse instance: cographic rank 3 of 12 edges, and one seeded draw per
    # space, so both the half-rate harvest and its quarter-rate rerun come up
    # empty at desk scale
    code, _, err = run_main(
        capsys, "find-basis", "--family", "subdivided",
        "--params", "vertices=4,pieces=2", "--kind", "cographic", "--sample", "1",
    )
    assert code == 3
    assert "claim violated" in err


def test_verify_space_reports_defect(capsys):
    code, out, _ = run_main(capsys, "verify-space", "--n", "8", "--k", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["max_tv"] == "0/1"
    assert blob["ok"] is True
    assert blob["descriptor"]["construction"] == "poly_eval"


def test_verify_space_marginal_transform(capsys):
    code, out, _ = run_main(
        capsys, "verify-space", "--n", "3", "--k", "2", "--marginal-L", "2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["descriptor"]["construction"] == "grouped"
    assert blob["descriptor"]["p_log_inv"] == 2


def test_verify_space_dump_matches_library(capsys):
    code, out, _ = run_main(capsys, "verify-space", "--n", "3", "--k", "2", "--dump")
    assert code == 0
    assert out == dump_support(build_kwise(3, 2))


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["--n", "10", "--k", "3"], "verify_space_exact.json"),
        (["--n", "12", "--k", "2", "--delta", "1/4"], "verify_space_small_bias.json"),
    ],
    ids=["exact", "small_bias"],
)
def test_verify_space_golden_json(capsys, argv, golden):
    # bytes captured from the support-enumerating verifier: an exact space
    # and a small-bias space with max_tv > 0 (the heterogeneous grouped pin
    # is test_verify_heterogeneous_grouped_pinned in test_samplespace.py)
    code, out, _ = run_main(capsys, "verify-space", *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


KNOBS = {"k": 2, "epsilon": 0.9, "delta": 0.45, "rate_scale": 1.0}

# pinned stdout bytes of every report-producing subcommand; "{knobs}" and
# "{csv}" stand for files the test writes
CLI_GOLDENS = {
    "cli_gen.txt": ["gen", "--family", "theta", "--params", "lengths=2:3:4"],
    "cli_gen_json.json": ["gen", "--family", "theta", "--params", "lengths=2:3:4", "--json"],
    "cli_connectivity.json": [
        "connectivity", "--family", "multi_cycle", "--params", "length=3,copies=2", "--k", "3",
    ],
    "cli_connectivity_sample.json": [
        "connectivity", "--family", "cycle", "--params", "length=9", "--k", "2",
        "--delta", "1/8", "--sample", "40", "--seed", "5",
    ],
    "cli_cyclefree.json": [
        "cyclefree", "--family", "theta", "--params", "lengths=2:2:3", "--k", "3", "--csv", "{csv}",
    ],
    "cli_unique_cut.json": [
        "unique-cut", "--family", "cycle", "--params", "length=5", "--k", "4", "--edges", "1,2",
    ],
    "cli_unique_cycle.json": [
        "unique-cycle", "--family", "theta", "--params", "lengths=2:3:3", "--k", "4",
        "--edges", "1,2,3,4,5",
    ],
    "cli_sparsify.json": [
        "sparsify", "--family", "dumbbell", "--params", "left=5,right=5",
        "--constants", "{knobs}", "--rate-scale", "5e-4",
    ],
    "cli_reweight.json": [
        "reweight", "--family", "multi_cycle", "--params", "length=2,copies=8", "--k", "2",
        "--rate-scale", "5.75e-3",
    ],
    "cli_find_basis.json": [
        "find-basis", "--family", "complete", "--params", "vertices=5", "--kind", "cographic",
    ],
}


@pytest.mark.parametrize("golden", sorted(CLI_GOLDENS))
def test_cli_stdout_golden(capsys, tmp_path, golden):
    knobs = tmp_path / "knobs.json"
    knobs.write_text(json.dumps(KNOBS))
    csv_file = tmp_path / "rates.csv"
    argv = [a.format(knobs=knobs, csv=csv_file) for a in CLI_GOLDENS[golden]]
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()
    if "{csv}" in CLI_GOLDENS[golden]:
        assert csv_file.read_bytes() == (GOLDEN / "cli_cyclefree.csv").read_bytes()


def test_verify_space_budget_error_unchanged(capsys):
    code, out, err = run_main(capsys, "verify-space", "--n", "16", "--k", "4", "--budget", "1024")
    assert code == 2
    assert out == ""
    assert err == (
        "error: support has 2^20 vectors; enumeration budget is 1024 "
        "(needs a budget of at least 1048576)\n"
    )


def test_verify_space_budget_above_default(capsys):
    # a 2^26-seed space is built at any size; --budget alone decides whether
    # it may be enumerated, and the verifier enumerates nothing
    code, out, err = run_main(
        capsys, "verify-space", "--n", "32", "--k", "2", "--delta", "1/256",
        "--budget", str(1 << 26),
    )
    assert code == 0, err
    blob = json.loads(out)
    assert blob["seed_bits"] == 26
    assert blob["max_tv"] == "1/8192"
    assert blob["subsets_tested"] == 496
    assert blob["ok"] is True


def test_sampled_run_needs_no_budget(capsys):
    # 2^34 seeds, past the default budget; sampling builds no support
    code, out, err = run_main(
        capsys, "connectivity", "--family", "cycle", "--params", "length=200",
        "--k", "8", "--delta", "1/64", "--sample", "16",
    )
    assert code == 0, err
    blob = json.loads(out)
    assert blob["counts"]["trials"] == 16
    assert blob["spec"]["space"]["seed_bits"] == 34
    # enumerating the same space is still refused
    code, out, err = run_main(
        capsys, "connectivity", "--family", "cycle", "--params", "length=200",
        "--k", "8", "--delta", "1/64",
    )
    assert code == 2 and out == ""
    assert "enumeration budget is 16777216" in err


def test_sample_mode_notes_and_seed(capsys):
    code, out, _ = run_main(
        capsys, "connectivity", "--family", "cycle", "--params", "length=8",
        "--k", "2", "--sample", "64", "--seed", "7",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["spec"]["mode"] == "sample"
    assert blob["spec"]["seed"] == 7
    assert any("95%" in note for note in blob["notes"])


def test_graph_file_input(capsys, tmp_path):
    g = gen_graph("multi_cycle", {"length": 3, "copies": 2})
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    code, out, _ = run_main(capsys, "connectivity", "--graph", str(path), "--k", "2")
    assert code == 0
    assert json.loads(out)["spec"]["generator"] == f"file:{path}"


@pytest.mark.parametrize("key,value", [("id", 1.5), ("id", True), ("id", "1"), ("u", 0.0)])
def test_graph_json_with_non_int_id_or_endpoint_is_an_error(capsys, tmp_path, key, value):
    g = gen_graph("multi_cycle", {"length": 3, "copies": 2})
    payload = json.loads(g.to_json())
    payload["edges"][0][key] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_main(capsys, "connectivity", "--graph", str(path), "--k", "2")
    assert code == 2
    assert "must be an int" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "text",
    ['{"n": 2}', '{"n": 2, "edges": [{"id": 1, "u": 0, "v": 1}]}', '{"n": 2, "edges": 5}', "[]"],
)
def test_graph_json_with_missing_or_mistyped_field_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run_main(capsys, "connectivity", "--graph", str(path), "--k", "2")
    assert code == 2
    # every one is read as JSON, a top-level array included
    assert err.startswith(("error: graph JSON ", "error: edge JSON ")) and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("text", ["3\n", "2 1\n1\n"])
def test_graph_text_with_malformed_line_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_main(capsys, "connectivity", "--graph", str(path), "--k", "2")
    assert code == 2
    assert err.startswith("error: graph text must be")
    assert out == ""


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# each value read from outside goes through one reader: ints stay ints, a
# rational with a zero denominator is a bad value, --constants is a checked
# JSON object, --marginal-L below 1 is refused, a --params key needs its
# value and a graph needs --graph or --family
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "cycle", "--params", "length=4.7"],
        ["gen", "--family", "theta", "--params", "lengths=5"],
        ["connectivity", "--family", "cycle", "--params", "length=5", "--delta", "1/0"],
        ["verify-space", "--n", "4", "--delta", "1/0"],
        ["sparsify", "--family", "cycle", "--params", "length=5", "--delta", "1/0"],
        ["verify-space", "--n", "4", "--marginal-L", "0"],
        ["verify-space", "--n", "4", "--marginal-L", "-3"],
        ["connectivity", "--family", "cycle", "--params", "length=5", "--marginal-L", "0"],
        ["gen", "--family", "cycle", "--params", "length"],
        ["gen"],
    ],
    ids=["float-int", "theta-scalar", "delta-conn", "delta-verify", "delta-sparsify",
         "L0", "L-3", "L0-conn", "param-no-value", "no-graph"],
)
def test_bad_flag_values_are_one_error_line(capsys, argv):
    assert_one_error_line(*run_main(capsys, *argv))


@pytest.mark.parametrize("suffix,text", [(".txt", "2 1\n1 2 1/0\n"), (
    ".json", '{"n": 2, "edges": [{"id": 1, "u": 0, "v": 1, "w": "1/0"}]}'
)])
def test_graph_file_with_zero_denominator_weight_is_an_error(capsys, tmp_path, suffix, text):
    path = tmp_path / f"g{suffix}"
    path.write_text(text)
    code, out, err = run_main(capsys, "connectivity", "--graph", str(path), "--k", "2")
    assert_one_error_line(code, out, err)
    assert "'1/0'" in err


@pytest.mark.parametrize(
    "command,blob,message",
    [
        ("sparsify", {"epsilom": 0.5}, "unknown constants: ['epsilom']"),
        ("reweight", {"epsilom": 0.5}, "unknown constants: ['epsilom']"),
        ("sparsify", [0.5], "JSON object"),
        ("reweight", [0.5], "JSON object"),
        ("sparsify", {"k": 2.7}, "'k' must be int"),
        ("sparsify", {"k": True}, "'k' must be int"),
        ("reweight", {"epsilon": "0.5"}, "'epsilon' must be int or float"),
        ("reweight", {"delta": "1/0"}, "delta must be a number or a rational string"),
        ("find-basis", {"girth_mult": "a"}, "'girth_mult' must be int or float"),
        ("find-basis", {"small_ell_cutoff": True}, "'small_ell_cutoff' must be int"),
        ("find-basis", {"enum_budget": 2.5}, "'enum_budget' must be int"),
        ("find-basis", [], "JSON object"),
        ("sparsify", {"max_level": 20}, "unknown constants: ['max_level']"),
    ],
)
def test_constants_file_is_checked_the_same_for_every_command(
    capsys, tmp_path, command, blob, message
):
    knobs = tmp_path / "knobs.json"
    knobs.write_text(json.dumps(blob))
    kind = ["--kind", "graphic"] if command == "find-basis" else []
    code, out, err = run_main(
        capsys, command, "--family", "cycle", "--params", "length=5", *kind,
        "--constants", str(knobs),
    )
    assert_one_error_line(code, out, err)
    assert message in err


def test_constants_file_values_are_not_converted(capsys, tmp_path):
    knobs = tmp_path / "c.json"
    knobs.write_text(json.dumps({"girth_mult": 1, "enum_budget": 1 << 20}))
    code, out, err = run_main(
        capsys, "find-basis", "--family", "cycle", "--params", "length=6",
        "--kind", "graphic", "--constants", str(knobs),
    )
    assert code == 0, err
    assert '"girth_mult": 1,' in out
    assert json.loads(out)["constants_used"]["enum_budget"] == 1 << 20


def test_brute_listing_budget_error_names_the_subset_count(capsys, tmp_path):
    # complete(7) graphic: window [1, 1] queries the 21 singletons and the 210
    # pairs, 231 subsets, which is not a support of 2^8 vectors
    knobs = tmp_path / "c.json"
    knobs.write_text(json.dumps({"enum_budget": 50}))
    code, out, err = run_main(
        capsys, "find-basis", "--kind", "graphic", "--family", "complete",
        "--params", "vertices=7", "--constants", str(knobs),
    )
    assert_one_error_line(code, out, err)
    assert "231 subsets" in err and "needs a budget of at least 231" in err
    assert "2^" not in err


def test_subprocess_reports_byte_identical(tmp_path):
    argv = [
        sys.executable, "-m", "edgewise.cli", "cyclefree",
        "--family", "theta", "--params", "lengths=2:2:3", "--k", "3",
    ]
    a = subprocess.run(argv, capture_output=True, check=True, env=checkout_env())
    b = subprocess.run(argv, capture_output=True, check=True, env=checkout_env())
    assert a.stdout == b.stdout
    assert a.stdout  # nonempty


def test_subprocess_find_basis_deterministic(tmp_path):
    argv = [
        sys.executable, "-m", "edgewise.cli", "find-basis",
        "--family", "complete", "--params", "vertices=5",
        "--kind", "cographic",
    ]
    a = subprocess.run(argv, capture_output=True, check=True, env=checkout_env())
    b = subprocess.run(argv, capture_output=True, check=True, env=checkout_env())
    assert a.stdout == b.stdout
    blob = json.loads(a.stdout)
    g = gen_graph("complete", {"vertices": 5})
    assert len(blob["basis"]) == g.m - g.n + 1


def test_gen_graph_reads_a_graph_file(capsys, tmp_path):
    g = gen_graph("theta", {"lengths": [2, 3, 4]})
    path = tmp_path / "theta.txt"
    path.write_text(g.to_text())
    code, out, _ = run_main(capsys, "gen", "--graph", str(path))
    assert code == 0
    assert out == g.to_text()


@pytest.mark.parametrize("command", ["gen", "connectivity"])
@pytest.mark.parametrize(
    "flags",
    [["--family", "cycle", "--params", "length=5"], ["--params", "length=5"], ["--gen-seed", "0"]],
)
def test_graph_file_with_generator_flags_is_a_usage_error(capsys, tmp_path, command, flags):
    path = tmp_path / "theta.json"
    path.write_text(gen_graph("theta", {"lengths": [2, 3, 4]}).to_json())
    code, out, err = run_main(capsys, command, "--graph", str(path), *flags)
    assert_one_error_line(code, out, err)
    assert f"--graph FILE names the graph; {flags[0]}" in err


def test_workflow_console_script_step_passes_here(tmp_path):
    # the step's commands, with `edgewise` running this checkout's
    # `python -m edgewise.cli` in a scratch directory
    import yaml

    workflow = yaml.safe_load((SRC.parent / ".github" / "workflows" / "tier1.yml").read_text())
    step = next(s for s in workflow["jobs"]["tests"]["steps"] if s.get("name") == "Console script")
    assert "edgewise gen --graph theta.json --family cycle --params length=5" in step["run"]
    shim = tmp_path / "bin" / "edgewise"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m edgewise.cli "$@"\n')
    shim.chmod(0o755)
    env = checkout_env()
    env["PATH"] = os.pathsep.join([str(shim.parent), env["PATH"]])
    run = subprocess.run(
        ["bash", "-e", "-o", "pipefail", "-c", step["run"]],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr.count("error: ") == 1


# a --params value is an int or ints joined by ':'; nothing else is read
@pytest.mark.parametrize(
    "params,key",
    [("length=4.7", "length"), ("lengths=3:x", "lengths"), ("length=", "length"),
     ("path=graphs/a:b.txt", "path")],
)
def test_params_value_that_is_no_int_names_its_key(capsys, params, key):
    code, out, err = run_main(capsys, "gen", "--family", "cycle", "--params", params)
    assert_one_error_line(code, out, err)
    assert f"parameter {key!r} must be an int or ints joined by ':'" in err
