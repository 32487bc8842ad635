"""CLI tests.

In-process main() calls cover payload correctness against direct library
calls; subprocess invocations pin the byte-identity and exit-code contract
end to end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import greedycover
from greedycover.cli import FLAGS, PATHS, execute, main, parse_args, plain
from greedycover.cover import PartitionCover, build_theta1_adaptive, verify_cover
from greedycover.graph import (
    Graph,
    VertexSet,
    from_edge_list,
    gnp_sample,
    is_independent,
    to_edge_list,
)
from greedycover.montecarlo import bipartite_comparison, estimate_membership
from greedycover.params import ParamSet, bound_formulas
from greedycover.process import ensemble_run, run
from greedycover.typicality import is_typical

SRC = Path(__file__).resolve().parent.parent / "src"


def star(n):
    rows = [((1 << n) - 2)] + [1 for _ in range(n - 1)]
    return Graph.from_rows(rows)


def complete(n):
    full = (1 << n) - 1
    return Graph.from_rows([full ^ (1 << v) for v in range(n)])


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# invocations that exit 0 as they stand
BIPARTITE = ["estimate", "--what", "bipartite", "--a", "4", "--b", "5", "--k", "2"]
CHAIN = ["estimate", "--what", "chain", "--n", "60", "--p", "0.2", "--seed", "3",
         "--i", "1", "--j", "3", "--u", "0", "--v", "1", "--trials", "200"]
UNIFORM = ["estimate", "--what", "uniform", "--n", "20", "--p", "0.2", "--k", "3"]
MEMBERSHIP = ["estimate", "--what", "membership", "--n", "30", "--p", "0.2",
              "--trials", "50"]


class TestParse:
    def test_roundtrip_fields(self):
        cfg = parse_args(
            ["run", "--n", "2000", "--p", "0.05", "--k-coef", "0.5", "--seed", "7"]
        )
        assert cfg.subcommand == "run"
        assert (cfg.n, cfg.p, cfg.k_coef, cfg.seed) == (2000, 0.05, 0.5, 7)
        assert cfg.trials == 1 and cfg.format == "json"

    def test_cover_adaptive_flags(self):
        cfg = parse_args(
            ["cover", "--input", "g.el", "--p", "0.1", "--mode", "adaptive",
             "--max-t", "100000"]
        )
        assert cfg.input == "g.el" and cfg.mode == "adaptive"
        assert cfg.max_t == 100_000 and cfg.seed == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "50"],  # missing --p
            ["run", "--n", "50", "--p", "0.2", "--nope"],  # unknown flag
            ["run", "--n", "50", "--input", "g.el", "--p", "0.2"],  # conflict
            ["run", "--n", "50", "--p", "0.2", "--trials", "5", "--format", "csv"],
            ["typical", "--p", "0.1"],  # no host
            ["cover", "--n", "50", "--p", "0.1", "--mode", "theta1"],  # no --t
            ["cover", "--n", "50", "--p", "0.1", "--t", "5"],  # --t with adaptive
            ["estimate", "--what", "chain", "--n", "50", "--p", "0.2",
             "--i", "1", "--j", "2"],  # missing --u/--v
            ["estimate", "--what", "bipartite", "--a", "10", "--b", "20"],
            ["estimate", "--what", "bipartite", "--a", "10", "--b", "20",
             "--k", "3", "--n", "30"],  # host flags forbidden
            ["estimate", "--what", "uniform", "--n", "20"],  # missing --p and --k
            ["estimate", "--what", "chain", "--n", "50", "--p", "0.2", "--i", "1",
             "--j", "2", "--u", "0", "--v", "1", "--format", "csv"],
            ["run", "--n", "50", "--p", "0.2", "--trials", "0"],
            ["typical", "--n", "50", "--p", "0.2", "--strict-factor", "2.0"],
            ["bounds", "--p", "0.05"],  # missing --n
            ["typical", "--n", "50", "--p", "0.2", "--max-size", "0"],
            ["typical", "--n", "50", "--p", "0.2", "--max-size", "-3"],
            ["cover", "--n", "50", "--p", "0.1", "--mode", "theta1", "--t", "5",
             "--max-t", "9"],  # --max-t with a fixed mode
            ["cover", "--n", "50", "--p", "0.1", "--mode", "pdim", "--t", "5",
             "--max-t", "9"],
            ["cover", "--n", "50", "--p", "0.1", "--mode", "theta1", "--t", "5",
             "--s", "3"],  # --s outside the pdim modes
            ["cover", "--n", "50", "--p", "0.1", "--mode", "adaptive", "--s", "3"],
            # flags that the chosen path never reads
            ["run", "--n", "50", "--p", "0.2", "--tracked", "3"],
            ["run", "--n", "60", "--p", "0.2", "--threads", "2"],
            ["cover", "--n", "50", "--p", "0.1", "--threads", "2"],
            ["typical", "--n", "50", "--p", "0.2", "--threads", "2"],
            UNIFORM + ["--threads", "2"],
            BIPARTITE + ["--p", "0.3"],
            BIPARTITE + ["--k-coef", "0.7"],
            UNIFORM + ["--k-coef", "0.7"],
            UNIFORM + ["--trials", "7"],
            MEMBERSHIP + ["--k", "4"],
            MEMBERSHIP + ["--i", "2"],
            CHAIN + ["--pair-sample", "5"],
            CHAIN + ["--k", "3"],
            ["bounds", "--n", "1000", "--p", "0.05", "--seed", "9"],  # never read
            # p is read only when the host is generated
            ["estimate", "--what", "uniform", "--input", "g.el", "--p", "0.7", "--k", "3"],
            # --epsilon replaces the k coefficient, so --k-coef would be ignored
            ["bounds", "--n", "100000", "--p", "0.001", "--k-coef", "0.7",
             "--epsilon", "0.5"],
            # a flag counts as given by its presence, even at its default value
            ["bounds", "--n", "100000", "--p", "0.001", "--k-coef", "0.5",
             "--epsilon", "0.5"],
            ["run", "--n", "50", "--p", "0.2", "--trials", "1", "--tracked", "0"],
            ["run", "--n", "50", "--p", "0.2", "--threads", "1"],
            # abbreviations are refused, not read as the flag they prefix
            ["cover", "--n", "50", "--p", "0.2", "--k", "3"],
            ["typical", "--n", "50", "--p", "0.2", "--strict-f", "0.5"],
            ["bounds", "--n", "1000", "--p", "0.05", "--c-eps", "inf"],
            ["bounds", "--n", "1000", "--p", "0.05", "--c-eps", "nan"],
            # bipartite sizes outside a >= k >= 2, b >= 1
            ["estimate", "--what", "bipartite", "--a", "0", "--b", "5", "--k", "2"],
            ["estimate", "--what", "bipartite", "--a", "10", "--b", "20", "--k", "1"],
            ["estimate", "--what", "bipartite", "--a", "10", "--b", "0", "--k", "3"],
            ["estimate", "--what", "bipartite", "--a", "3", "--b", "20", "--k", "5"],
            ["estimate", "--what", "bipartite", "--a", "-1", "--b", "5", "--k", "2"],
            # chain steps and vertices that are bad on any host
            CHAIN[:9] + ["--i", "0", "--j", "2", "--u", "0", "--v", "1"],
            CHAIN[:9] + ["--i", "3", "--j", "3", "--u", "0", "--v", "1"],
            CHAIN[:9] + ["--i", "1", "--j", "3", "--u", "2", "--v", "2"],
            CHAIN[:9] + ["--i", "1", "--j", "3", "--u", "-1", "--v", "1"],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [BIPARTITE, CHAIN, UNIFORM, MEMBERSHIP])
    def test_path_flags_at_defaults_are_accepted(self, argv):
        assert parse_args(argv).subcommand == "estimate"

    @pytest.mark.parametrize("argv", [BIPARTITE, CHAIN], ids=["bipartite", "chain"])
    def test_threads_accepted_by_every_trial_estimator(self, argv):
        assert parse_args(argv + ["--threads", "2"]).threads == 2


# One small invocation per path, and a value for every flag that a path
# reads: setting the flag must change the outcome of the invocation.
PATH_BASES = {
    "gen": ["gen", "--n", "30", "--p", "0.2"],
    "trajectory": ["run", "--n", "40", "--p", "0.2"],
    "ensemble": ["run", "--n", "40", "--p", "0.2", "--trials", "4"],
    "typical": ["typical", "--n", "40", "--p", "0.2", "--budget", "2"],
    "theta1": ["cover", "--n", "30", "--p", "0.2", "--mode", "theta1", "--t", "5"],
    "pdim": ["cover", "--n", "30", "--p", "0.2", "--mode", "pdim", "--t", "2"],
    "adaptive": ["cover", "--n", "30", "--p", "0.2", "--mode", "adaptive"],
    "pdim-adaptive": ["cover", "--n", "30", "--p", "0.2", "--mode", "pdim-adaptive"],
    "membership": MEMBERSHIP,
    "pair": ["estimate", "--what", "pair", "--n", "30", "--p", "0.2", "--trials", "50"],
    "chain": CHAIN,
    "bipartite": BIPARTITE + ["--trials", "50"],
    "uniform": UNIFORM,
    "bounds": ["bounds", "--n", "1000", "--p", "0.05"],
}
READ_VALUES = {
    "n": ["25"],
    "p": ["0.25"],
    "k_coef": ["0.7"],
    # k = 0 at these sizes, which the ParamSet rejects (exit 2)
    "epsilon": ["0.5"],
    "seed": ["9"],
    # on the trajectory path this selects the ensemble
    "trials": ["7"],
    "tracked": ["2"],
    "budget": ["3"],
    "max_size": ["2"],
    "strict_factor": ["0.5"],
    "t": ["6"],
    "s": ["2"],
    "max_t": ["3"],
    "include_sets": [],
    "pair_sample": ["5"],
    "i": ["2"],
    "j": ["4"],
    "u": ["4"],
    "v": ["3"],
    "a": ["5"],
    "b": ["6"],
    "k": ["4"],
    "index": ["3"],
    "sample_mode": ["rejection"],
    "c_eps": ["2.0"],
}
# The chain reads k only as the bound on j: k = 2 < j = 3 fails (exit 1).
PATH_VALUES = {("chain", "k_coef"): ["0.2"]}
# Flags that only shape the output, and the flags that choose the path.
NOT_PROBED = {"out", "format", "strict", "threads", "mode", "what", "input"}


def outcome(argv):
    """(exit code, payload without the config echo) of an accepted argv."""
    cfg = parse_args(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = execute(cfg)
    payload = out.getvalue()
    if payload.startswith("{"):
        doc = json.loads(payload)
        del doc["config"]
        payload = json.dumps(doc, sort_keys=True)
    return code, payload


class TestFlagsAreRead:
    def test_tables_cover_every_path_and_flag(self):
        every_path = [path for paths in PATHS.values() for path in paths]
        assert sorted(PATH_BASES) == sorted(every_path)
        assert sorted(READ_VALUES) == sorted(set(FLAGS) - NOT_PROBED)

    @pytest.mark.parametrize("path", sorted(PATH_BASES))
    def test_each_flag_a_path_reads_changes_its_outcome(self, path):
        base = PATH_BASES[path]
        before = outcome(base)
        assert before[0] == 0
        probed = 0
        for name, flag in FLAGS.items():
            if path not in flag.reads or name in NOT_PROBED:
                continue
            option = "--" + name.replace("_", "-")
            value = PATH_VALUES.get((path, name), READ_VALUES[name])
            after = outcome(base + [option, *value])
            assert after != before, f"{path} ignores {option}"
            probed += 1
        assert probed > 0


# The argvs above omit the flags that choose the membership and adaptive
# paths, so that --what, --mode and estimate's --trials are compared at their
# defaults too.
DEFAULT_BASES = {
    **PATH_BASES,
    "membership": ["estimate", "--n", "30", "--p", "0.2"],
    "adaptive": ["cover", "--n", "30", "--p", "0.2"],
}
TRIALS_DEFAULT = {"run": 1, "estimate": 10_000}


class TestDefaults:
    @pytest.mark.parametrize("path", sorted(DEFAULT_BASES))
    def test_giving_a_default_equals_omitting_it(self, path):
        base = DEFAULT_BASES[path]
        omitted = parse_args(base)
        probed = 0
        for name, flag in FLAGS.items():
            option = "--" + name.replace("_", "-")
            default = TRIALS_DEFAULT.get(base[0]) if name == "trials" else flag.default
            if path not in flag.reads or option in base:
                continue
            if default is None or isinstance(default, bool):  # no value to give
                continue
            assert parse_args(base + [option, str(default)]) == omitted, option
            probed += 1
        assert probed > 0


class TestPlain:
    """`plain` writes a record as the fields it shows, recursively."""

    def test_param_set_shows_its_payload_only(self):
        assert list(plain(ParamSet(60, 0.2))) == [
            "n", "p", "k_coef", "epsilon", "k", "f0", "delta2"
        ]

    def test_violations_keep_their_keys(self):
        # the dense host of the golden cases, checked against a sparse p
        host = gnp_sample(40, 0.9, 1)
        report = is_typical(host, ParamSet(40, 0.05), budget=2, strict_factor=0.05)
        d = plain(report)
        assert report.p1.samples and "samples" not in d["p1"]
        for name, keys in [
            ("p1", {"S", "observed", "interval"}),
            ("p2", {"v", "degree", "interval"}),
            ("p3", {"u", "v", "codegree"}),
        ]:
            assert d[name]["violations"]
            assert all(set(v) == keys for v in d[name]["violations"])
        p2 = report.p2.violations[0]
        assert d["p2"]["violations"][0] == {
            "v": p2.v, "degree": p2.degree, "interval": list(p2.interval)
        }
        assert d["p3"]["violations"][0] == {"u": 0, "v": 1, "codegree": 31}
        assert report.p3.violations[0] == (0, 1, 31)  # still a tuple

    def test_vertex_sets_become_sorted_lists(self):
        assert plain(VertexSet.from_iterable(9, [7, 2, 5])) == [2, 5, 7]
        assert plain({"a": (VertexSet(3, 0b101),)}) == {"a": [[0, 2]]}

    def test_singleton_count_counts_size_one_cells(self):
        cells = [VertexSet.from_iterable(6, c) for c in ([0, 1], [2], [3, 4], [5])]
        cover = PartitionCover(partitions=[cells[:2], cells[2:]], host_n=6)
        assert cover.singleton_count == 2
        assert plain(cover) == {
            "partitions": [[[0, 1], [2]], [[3, 4], [5]]],
            "host_n": 6,
            "singleton_count": 2,
        }

    def test_fractions_become_exact_text(self):
        assert plain(Fraction(7, 2)) == "7/2"
        assert plain(Fraction(1)) == "1"  # ratio_exact on an a = b host

    def test_no_exported_class_keeps_a_to_dict(self):
        exported = [getattr(greedycover, name) for name in greedycover.__all__]
        classes = [obj for obj in exported if isinstance(obj, type)]
        assert len(classes) > 15
        assert [c.__name__ for c in classes if hasattr(c, "to_dict")] == []


class TestGen:
    def test_stdout_matches_library(self, capsys):
        assert main(["gen", "--n", "40", "--p", "0.2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out == to_edge_list(gnp_sample(40, 0.2, 3)) + "\n"

    def test_out_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "h.el"
        assert main(
            ["gen", "--n", "40", "--p", "0.2", "--seed", "3", "--out", str(path)]
        ) == 0
        assert capsys.readouterr().out == ""
        host = from_edge_list(path.read_text())
        assert host == gnp_sample(40, 0.2, 3)


class TestRun:
    def test_single_run_json_payload(self, capsys):
        code, doc = run_json(capsys, ["run", "--n", "60", "--p", "0.2", "--seed", "5"])
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["config"]["subcommand"] == "run"
        expected = plain(run(gnp_sample(60, 0.2, 5), ParamSet(60, 0.2), 5))
        assert doc["run"] == json.loads(json.dumps(expected))

    def test_input_equals_generated(self, tmp_path, capsys):
        path = tmp_path / "h.el"
        main(["gen", "--n", "60", "--p", "0.2", "--seed", "3", "--out", str(path)])
        capsys.readouterr()
        _, from_file = run_json(
            capsys, ["run", "--input", str(path), "--p", "0.2", "--seed", "3"]
        )
        _, from_gen = run_json(capsys, ["run", "--n", "60", "--p", "0.2", "--seed", "3"])
        assert from_file["run"] == from_gen["run"]
        assert from_file["config"] != from_gen["config"]

    def test_csv_records(self, capsys):
        assert main(
            ["run", "--n", "60", "--p", "0.2", "--seed", "5", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        prun = run(gnp_sample(60, 0.2, 5), ParamSet(60, 0.2), 5)
        assert lines[0].startswith("i,chosen_vertex,active_size")
        assert len(lines) == 1 + prun.completed_steps
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert int(first[1]) == prun.order[0]

    def test_csv_records_of_an_exhausted_run(self, capsys):
        # the last step empties the active set: its degree cells (None) are empty
        argv = ["run", "--n", "8", "--p", "0.5", "--k-coef", "3", "--seed", "1"]
        assert main([*argv, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        prun = run(gnp_sample(8, 0.5, 1), ParamSet(8, 0.5, k_coef=3.0), 1)
        assert prun.completed_steps < prun.params.k
        assert len(lines) == 1 + prun.completed_steps
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert last["active_size"] == "0"
        assert last["deg_min"] == last["deg_max"] == last["deg_mean"] == ""

    def test_ensemble_matches_library(self, capsys):
        code, doc = run_json(
            capsys,
            ["run", "--n", "80", "--p", "0.1", "--seed", "2", "--trials", "16",
             "--tracked", "3"],
        )
        assert code == 0
        host = gnp_sample(80, 0.1, 2)
        expected = plain(ensemble_run(
            host, ParamSet(80, 0.1), trials=16, seed=2, tracked=(0, 1, 2)
        ))
        assert doc["ensemble"] == json.loads(json.dumps(expected))


class TestTypical:
    def test_star_not_typical_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "star.el"
        path.write_text(to_edge_list(star(500)) + "\n")
        code, doc = run_json(capsys, ["typical", "--input", str(path), "--p", "0.05"])
        assert code == 0
        assert doc["typicality"]["typical"] is False
        assert main(["typical", "--input", str(path), "--p", "0.05", "--strict"]) == 1

    def test_gnp_typical(self, capsys):
        code, doc = run_json(
            capsys, ["typical", "--n", "300", "--p", "0.1", "--seed", "2"]
        )
        assert code == 0
        assert doc["typicality"]["typical"] is True
        assert doc["host"] == {"n": 300, "edges": gnp_sample(300, 0.1, 2).edge_count}


class TestCover:
    def test_adaptive_payload_matches_library(self, capsys):
        code, doc = run_json(
            capsys,
            ["cover", "--n", "80", "--p", "0.1", "--seed", "1", "--include-sets",
             "--strict"],
        )
        assert code == 0
        host = gnp_sample(80, 0.1, 1)
        ps = ParamSet(80, 0.1)
        cover, count = build_theta1_adaptive(host, ps, seed=1)
        report = verify_cover(host, cover, ps=ps, adaptive_count=count)
        assert doc["adaptive_count"] == count
        assert doc["verification"] == json.loads(json.dumps(plain(report)))
        assert doc["verification"]["covered_fraction"] == 1.0
        for members in doc["cover"]["sets"]:
            assert is_independent(host, VertexSet.from_iterable(80, members))

    def test_truncated_adaptive_strict_exit_1(self, capsys):
        code = main(
            ["cover", "--n", "80", "--p", "0.1", "--seed", "1", "--max-t", "1",
             "--strict"]
        )
        out = capsys.readouterr().out
        assert code == 1
        doc = json.loads(out)
        assert doc["verification"]["covered_fraction"] < 1.0

    def test_pdim_adaptive(self, capsys):
        code, doc = run_json(
            capsys,
            ["cover", "--n", "60", "--p", "0.15", "--seed", "4", "--mode",
             "pdim-adaptive", "--strict"],
        )
        assert code == 0
        assert doc["verification"]["covered_fraction"] == 1.0


class TestEstimate:
    def test_membership_json_matches_library(self, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--n", "50", "--p", "0.2", "--seed", "6", "--trials", "500",
             "--pair-sample", "10"],
        )
        assert code == 0
        host = gnp_sample(50, 0.2, 6)
        rep = estimate_membership(
            host, ParamSet(50, 0.2), trials=500, seed=6, pair_sample=10
        )
        assert doc["membership"] == json.loads(json.dumps(plain(rep)))
        assert [set(p) for p in doc["membership"]["pair_freq"]] == 10 * [
            {"u", "v", "count", "freq", "ci_radius"}
        ]

    def test_membership_csv_table(self, capsys):
        assert main(
            ["estimate", "--n", "50", "--p", "0.2", "--seed", "6", "--trials", "200",
             "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "vertex,count,freq,ci_radius"
        assert len(lines) == 51
        vertex, count, freq, _ = lines[1].split(",")
        assert vertex == "0"
        assert float(freq) == int(count) / 200

    def test_chain_payload(self, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--what", "chain", "--n", "60", "--p", "0.2", "--seed", "3",
             "--i", "1", "--j", "2", "--u", "0", "--v", "1", "--trials", "300"],
        )
        host = gnp_sample(60, 0.2, 3)
        if host.has_edge(0, 1):
            assert code == 1
        else:
            assert code == 0
            assert doc["chain"]["counts"][0] == 300

    def test_bipartite_exact_fields(self, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--what", "bipartite", "--a", "10", "--b", "20", "--k", "3",
             "--trials", "500", "--seed", "1"],
        )
        assert code == 0
        rep = bipartite_comparison(10, 20, 3, trials=500, seed=1)
        assert doc["bipartite"] == json.loads(json.dumps(plain(rep)))
        assert doc["bipartite"]["uniform_exact"] == "2/315"
        assert doc["bipartite"]["greedy_exact"] == "1/45"
        assert doc["bipartite"]["ratio_exact_float"] == 3.5

    def test_uniform_set(self, capsys):
        code, doc = run_json(
            capsys,
            ["estimate", "--what", "uniform", "--n", "16", "--p", "0.25",
             "--seed", "2", "--k", "3", "--index", "5"],
        )
        assert code == 0
        members = doc["uniform_set"]["members"]
        assert len(members) == 3
        assert is_independent(
            gnp_sample(16, 0.25, 2), VertexSet.from_iterable(16, members)
        )

    def test_uniform_infeasible_exit_1(self, tmp_path, capsys):
        path = tmp_path / "k6.el"
        path.write_text(to_edge_list(complete(6)) + "\n")
        code = main(
            ["estimate", "--what", "uniform", "--input", str(path), "--k", "2"]
        )
        assert code == 1
        assert "no independent" in capsys.readouterr().err

    def test_chain_bad_step_exit_1(self, capsys):
        # j beyond the host's k = 6 depends on the host, so it is no usage error
        code = main(
            ["estimate", "--what", "chain", "--n", "60", "--p", "0.2", "--seed", "3",
             "--i", "1", "--j", "7", "--u", "0", "--v", "1", "--trials", "10"]
        )
        assert code == 1


class TestBounds:
    def test_spec_point(self, capsys):
        code, doc = run_json(capsys, ["bounds", "--n", "1000", "--p", "0.05"])
        assert code == 0
        ps = ParamSet(1000, 0.05)
        assert doc["bounds"] == json.loads(json.dumps(bound_formulas(ps)))
        assert doc["bounds"]["mrss_lower"] == pytest.approx(4.337, abs=5e-4)
        assert doc["params"]["k"] == ps.k
        assert len(doc["envelope"]) == ps.k + 1

    def test_bad_p_exit_2(self, capsys):
        assert main(["bounds", "--n", "1000", "--p", "1.5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_non_finite_k_coef_exit_2(self, capsys):
        # parse_args accepts it; the ParamSet refuses the infinite length
        assert main(["bounds", "--n", "1000", "--p", "0.05", "--k-coef", "inf"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # t_pdim = ceil(inf)
            ["--n", "1000", "--p", "0.05", "--c-eps", "1e308"],
            # t_theta1 = ceil(6 n^2 log n / k^2) overflows to inf
            ["--n", str(10**200), "--p", "0.5"],
            # p * n: the int n does not fit in a float
            ["--n", str(10**400), "--p", "0.5"],
        ],
        ids=["c_eps_1e308", "n_1e200", "n_1e400"],
    )
    def test_numeric_overflow_exit_2(self, argv, capsys):
        assert main(["bounds", *argv]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err


class TestExitCodesAndIO:
    def test_missing_input_file_exit_1(self, capsys):
        assert main(["run", "--input", "/nonexistent.el", "--p", "0.1"]) == 1

    def test_malformed_edge_list_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_text("3 1\n0 9\n")
        assert main(["run", "--input", str(path), "--p", "0.5"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["n", "input"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--p", "0.1", "--trials", "2", "--tracked", "61", "--threads", "2"],
            ["estimate", "--what", "chain", "--p", "0.2", "--i", "1", "--j", "3",
             "--u", "60", "--v", "1", "--trials", "10"],
            ["estimate", "--what", "chain", "--p", "0.2", "--i", "1", "--j", "3",
             "--u", "0", "--v", "75", "--trials", "10"],
            ["typical", "--p", "0.2", "--max-size", "61"],
        ],
        ids=["tracked", "chain_u", "chain_v", "max_size"],
    )
    def test_vertex_beyond_the_host_exit_2(self, argv, source, tmp_path, capsys):
        # the flags are checked against the host as soon as it is loaded
        if source == "n":
            host = ["--n", "60", "--seed", "3"]
        else:
            path = tmp_path / "host.el"
            path.write_text(to_edge_list(gnp_sample(60, 0.2, 3)))
            host = ["--input", str(path)]
        assert main([*argv, *host]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage error" in err and "n=60" in err

    @pytest.mark.parametrize("source", ["n", "input"])
    def test_uniform_k_beyond_the_host_exit_2(self, source, tmp_path, capsys):
        # uniform reads --p only when it generates the host
        if source == "n":
            host = ["--n", "60", "--p", "0.2", "--seed", "3"]
        else:
            path = tmp_path / "host.el"
            path.write_text(to_edge_list(gnp_sample(60, 0.2, 3)))
            host = ["--input", str(path)]
        assert main(["estimate", "--what", "uniform", "--k", "61", *host]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage error" in err and "--k 61" in err and "n=60" in err

    def test_out_file_written(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(
            ["run", "--n", "40", "--p", "0.2", "--seed", "1", "--out", str(path)]
        ) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["run"]["completed_steps"] >= 1


class TestSubprocessContract:
    """End-to-end determinism through the real interpreter."""

    def _invoke(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "greedycover", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            timeout=300,
        )

    def test_byte_identity_repeat(self):
        argv = ["run", "--n", "150", "--p", "0.1", "--seed", "4", "--trials", "32",
                "--tracked", "4", "--threads", "2"]
        a = self._invoke(argv)
        b = self._invoke(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_thread_count_payload_identical(self):
        base = ["estimate", "--n", "100", "--p", "0.1", "--seed", "3",
                "--trials", "4097"]
        a = json.loads(self._invoke([*base, "--threads", "1"]).stdout)
        b = json.loads(self._invoke([*base, "--threads", "4"]).stdout)
        assert a["membership"] == b["membership"]
        assert a["config"]["threads"] == 1 and b["config"]["threads"] == 4

    def test_console_script_installed(self):
        exe = shutil.which("greedycover")
        assert exe is not None, "editable install should expose the console script"
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_stdout_is_pure_payload(self):
        proc = self._invoke(["bounds", "--n", "500", "--p", "0.1"])
        doc = json.loads(proc.stdout)
        assert doc["config"]["subcommand"] == "bounds"
        assert b"bounds: k=" in proc.stderr
