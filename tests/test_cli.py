import csv
import json

import numpy as np
import pytest

from d2dreuse import SolverOptions, cli, oracle
from d2dreuse.cli import (
    AREA_M,
    METHODS,
    config_hash,
    gen_scenario,
    main,
    run_experiment,
)
from d2dreuse.model import SCENARIO_KEYS, Scenario


def scenario_doc(path, value):
    """A two-DUE scenario file's dict with the entry at path set to value."""
    doc = gen_scenario(2, seed=1).to_dict()
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


SOLVERS = ((cli, "run_selection"), (cli, "brute_report"),
           (oracle, "orthogonal_baseline"), (oracle, "bs_only_baseline"))


def spy_on_solvers(monkeypatch):
    """Replace each method's module attribute with a spy that records its
    name and delegates; returns the list of recorded names."""
    calls = []
    for module, name in SOLVERS:
        def spy(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


class TestGenScenario:
    def test_deterministic(self):
        a = gen_scenario(5, seed=42, walls_random=3)
        b = gen_scenario(5, seed=42, walls_random=3)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.walls, b.walls)

    def test_bs_centered_dues_in_area(self):
        sc = gen_scenario(8, seed=1)
        assert np.array_equal(sc.positions[0], [AREA_M / 2, AREA_M / 2])
        assert np.all((sc.positions[1:] >= 0) & (sc.positions[1:] <= AREA_M))
        assert sc.tx_power_dbm[0] == 30.0
        assert np.all(sc.tx_power_dbm[1:] == 20.0)

    def test_wall_counts_bounded(self):
        sc = gen_scenario(6, seed=2, walls_random=4)
        assert sc.walls.shape == (7, 6)
        assert sc.walls.min() >= 0 and sc.walls.max() <= 4

    def test_rejects_zero_dues(self):
        with pytest.raises(ValueError):
            gen_scenario(0, seed=0)


class TestConfigHash:
    def test_key_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestRunExperiment:
    def test_all_methods_outputs(self, tmp_path):
        config = {"scenario": {"dues": 3, "seed": 5}, "methods": ["algo", "brute", "orthogonal", "bs_only"]}
        reports, infeasible = run_experiment(config, tmp_path, trace=True)
        assert infeasible == []
        for m in config["methods"]:
            doc = json.loads((tmp_path / f"report_{m}.json").read_text())
            assert doc["method"] == m
            assert doc["config_hash"] == config_hash(config)
            assert doc["seed"] == 5
            with open(tmp_path / f"cdf_{m}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert float(rows[-1]["quantile"]) == 1.0
            cdf_rates = sorted(float(r["rate_mbps"]) for r in rows)
            rep_rates = sorted(reports[m].final_allocation.rates.r_eff / 1e6)
            assert cdf_rates == pytest.approx(rep_rates, rel=1e-6)
        with open(tmp_path / "summary.csv") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert set(rows) == set(config["methods"])
        assert abs(float(rows["algo"]["gap_vs_brute"])) <= 0.05
        assert (tmp_path / "trace_algo.csv").exists()

    def test_reproducible_reports(self, tmp_path):
        config = {"scenario": {"dues": 3, "seed": 9}, "methods": ["brute"]}
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        da = json.loads((tmp_path / "a/report_brute.json").read_text())
        db = json.loads((tmp_path / "b/report_brute.json").read_text())
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db

    def test_report_files_parse_to_the_report_dicts(self, tmp_path):
        config = {"scenario": {"dues": 4, "seed": 7, "walls_random": 4},
                  "methods": ["algo", "brute", "orthogonal", "bs_only"]}
        reports, _ = run_experiment(config, tmp_path)
        for m, rep in reports.items():
            text = (tmp_path / f"report_{m}.json").read_text()
            assert text.count("\n") == 1 and text.endswith("\n")  # single-line JSON
            doc = json.loads(text)
            expected = {**rep.to_dict(), "config_hash": config_hash(config), "seed": 7}
            assert doc == expected
            assert list(doc) == list(expected)
            for part in ("relaxed", "final"):
                assert list(doc[part]) == list(expected[part])
                y = getattr(rep, f"{part}_allocation").y
                assert doc[part]["y_nonzero"] == [
                    [int(u), int(n), int(i), float(y[u, n, i])] for u, n, i in np.argwhere(y > 0)
                ]
            z = rep.associations
            assert doc["associations"] == [[int(u), int(n), int(i)] for u, n, i in np.argwhere(z > 0)]

    def test_infeasible_method_reported(self, tmp_path):
        config = {"scenario": {"dues": 1, "seed": 3}, "methods": ["orthogonal"]}
        reports, infeasible = run_experiment(config, tmp_path)
        assert infeasible == ["orthogonal"]
        doc = json.loads((tmp_path / "report_orthogonal.json").read_text())
        assert doc["status"] == "INFEASIBLE"

    def test_methods_dispatch_through_module_attributes(self, tmp_path, monkeypatch):
        # a tracer wraps these attributes, so the table must look them up when called
        calls = spy_on_solvers(monkeypatch)
        assert list(METHODS) == ["algo", "brute", "orthogonal", "bs_only"]
        run_experiment({"scenario": {"dues": 3, "seed": 5}, "methods": list(METHODS)}, tmp_path)
        assert calls == [name for _, name in SOLVERS]

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment({"scenario": {"dues": 2, "seed": 0}, "methods": ["magic"]}, tmp_path)

    @pytest.mark.parametrize("methods, seeded", [
        (["brute"], False),
        (["brute", "algo"], False),
        (["algo", "brute"], True),
        (["algo", "orthogonal", "brute", "bs_only"], True),
    ])
    def test_brute_starts_from_algo_only_when_algo_ran_first(self, tmp_path, methods, seeded):
        config = {"scenario": {"dues": 4, "seed": 7, "walls_random": 4}, "methods": methods}
        reports, _ = run_experiment(config, tmp_path)
        doc = json.loads((tmp_path / "report_brute.json").read_text())
        assert doc["flags"].get("seeded_by") == ("algo" if seeded else None)
        assert reports["brute"].flags == doc["flags"]
        if seeded:
            cold = oracle.brute_report(gen_scenario(4, 7, 4), SolverOptions())
            tol = SolverOptions().tolerance * max(abs(cold.pf_objective), 1.0)
            assert abs(doc["pf_objective"] - cold.pf_objective) <= tol
            assert doc["pf_objective"] >= reports["algo"].relaxed_allocation.objective - tol


class TestMain:
    def test_gen_round_trip(self, tmp_path, capsys):
        out = tmp_path / "scenario.json"
        assert main(["gen", "--dues", "4", "--seed", "7", "--out", str(out)]) == 0
        from d2dreuse import Scenario

        sc = Scenario.load(out)
        assert sc.num_due == 4 and sc.seed == 7

    def test_run_exit_codes(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": {"dues": 2, "seed": 1}, "methods": ["algo"]}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        cfg.write_text(json.dumps({"scenario": {"dues": 1, "seed": 3}, "methods": ["orthogonal"]}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out2")]) == 2

    def test_run_methods_override(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": {"dues": 2, "seed": 1}, "methods": ["algo"]}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--methods", "bs-only", "--out-dir", str(out)]) == 0
        assert (out / "report_bs_only.json").exists()
        assert not (out / "report_algo.json").exists()
        capsys.readouterr()
        # a repeated method is refused before any method runs
        again = tmp_path / "again"
        assert main(["run", "--config", str(cfg), "--methods", "algo,algo", "--out-dir", str(again)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: methods must be a nonempty subset of") and err.count("\n") == 1, err
        assert not again.exists()

    def test_compare_writes_table(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert main(["compare", "--seeds", "0..1", "--dues", "3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1"]
        for r in rows:
            assert float(r["gm_algo_mbps"]) > 0

    def test_compare_dispatches_through_module_attributes(self, tmp_path, monkeypatch, capsys):
        calls = spy_on_solvers(monkeypatch)
        assert main(["compare", "--seeds", "0..1", "--dues", "3", "--out", str(tmp_path / "c.csv")]) == 0
        assert calls == ["run_selection", "brute_report"] * 2

    def test_compare_seeds_brute_with_algo(self, tmp_path, monkeypatch, capsys):
        seeds, real = [], cli.brute_report
        monkeypatch.setattr(cli, "brute_report", lambda sc, o, report=None: seeds.append(report) or real(sc, o, report))
        assert main(["compare", "--seeds", "0..1", "--dues", "3", "--out", str(tmp_path / "c.csv")]) == 0
        assert [s.method for s in seeds] == ["algo", "algo"]

    @pytest.mark.parametrize("options, message", [
        ({"solver": {"feasibility_tol": 1e-8}}, "unknown solver option(s) in config: feasibility_tol"),
        ({"selection": {"eps1": 1e-3, "eps3": 1e-3}}, "unknown selection option(s) in config: eps3"),
        ({"selection": 5}, "config section selection must be an object"),
    ])
    def test_unknown_config_option_is_an_error(self, tmp_path, capsys, options, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": {"dues": 2, "seed": 1}, "methods": ["algo"], **options}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out" / "report_algo.json").exists()

    @pytest.mark.parametrize("config, message", [
        ({"solver": {"tolerance": "1e-6"}}, 'config solver.tolerance must be a number, got "1e-6"'),
        ({"solver": {"max_iters": "10"}}, 'config solver.max_iters must be an integer, got "10"'),
        ({"solver": {"max_iters": 2.5}}, "config solver.max_iters must be an integer, got 2.5"),
        ({"solver": {"max_iters": 0}}, "max_iters must be at least 1"),
        ({"solver": {"tolerance": True}}, "config solver.tolerance must be a number, got true"),
        ({"selection": {"eps1": [1]}}, "config selection.eps1 must be a number, got [1]"),
        ({"scenario": {"dues": 2}}, "config scenario.seed is required"),
        ({"scenario": {"dues": 2, "seed": 1, "walls": 3}}, "unknown scenario option(s) in config: walls"),
        ({"scenario": {"dues": "2", "seed": 1}}, 'config scenario.dues must be an integer, got "2"'),
        ({"scenario": 5}, "config section scenario must be an object"),
        ({"methods": "algo"}, "methods must be a nonempty subset of"),
        ({"output_dir": 5}, "config output_dir must be a string"),
        ([1, 2], "config must be an object"),
        ({"scenario": {"dues": 2, "seed": 1, "num_bs": 1}}, "unknown scenario option(s) in config: num_bs"),
        ({"selection": {"max_outer_iters": -2}}, "max_outer_iters must be at least 1"),
        ({"slover": {"tolerance": 1e-3}}, "unknown option(s) in config: slover"),
        ({"output-dir": "elsewhere"}, "unknown option(s) in config: output-dir"),
        ({"scenario": {"dues": 6.0, "seed": 1}}, "config scenario.dues must be an integer, got 6.0"),
        ({"scenario": {"dues": 2, "seed": -1}}, "scenario seed must lie in [0, 2**63), got -1"),
        ({"scenario": {"dues": 2, "seed": 2**63}}, "scenario seed must lie in [0, 2**63), got 9223372036854775808"),
        ({"scenario": {"dues": 3, "seed": 1, "walls_random": -5}}, "walls_random must be nonnegative, got -5"),
        # json writes inf as Infinity, which loads as a number
        ({"scenario": {"dues": 6, "seed": 4, "walls_random": 4}, "solver": {"tolerance": float("inf")}},
         "tolerance must be positive and finite, got inf"),
        # refused before algo runs, so no report is written
        ({"scenario": {"dues": 13, "seed": 1}, "methods": ["algo", "brute"]},
         "14 servers would need 16383 patterns (guard 13)"),
        # a method that is not a string, or a repeated one, is refused before any runs
        ({"methods": [["algo"]]}, "methods must be a nonempty subset of"),
        ({"methods": [{"a": 1}]}, "methods must be a nonempty subset of"),
        ({"methods": ["algo", "algo"]}, "methods must be a nonempty subset of"),
    ])
    def test_malformed_config_is_an_error(self, tmp_path, capsys, config, message):
        if isinstance(config, dict):
            config = {"scenario": {"dues": 2, "seed": 1}, "methods": ["algo"], **config}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"num_bs": 1}, "scenario num_due is required"),
        ({**gen_scenario(2, seed=1).to_dict(), "num_due": "2"}, 'scenario num_due must be an integer, got "2"'),
        ({**gen_scenario(2, seed=1).to_dict(), "num_bs": 2}, "scenario num_bs must be 1, got 2"),
        # json writes these as NaN and Infinity, which load as numbers; the model refuses them
        (scenario_doc(("positions_m", 1, 0), float("nan")), "positions must be finite"),
        (scenario_doc(("positions_m", 2, 1), 1e400), "positions must be finite"),
        (scenario_doc(("pathloss", "a"), float("nan")), "pathloss.a must be finite"),
        (scenario_doc(("pathloss", "w_db"), -1e400), "pathloss.w_db must be finite"),
        (scenario_doc(("noise_psd_dbm_hz",), float("nan")), "noise_psd_dbm_hz must be finite"),
        ({**gen_scenario(2, seed=1).to_dict(), "bandwidth": 1e6}, "unknown option(s) in scenario: bandwidth"),
        (scenario_doc(("pathloss", "A"), 40.0), "unknown pathloss option(s) in scenario: A"),
    ])
    def test_malformed_scenario_file_is_an_error(self, tmp_path, capsys, doc, message):
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": str(tmp_path / "scenario.json"), "methods": ["algo"]}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("num_bs", [None, 1])
    def test_scenario_file_with_one_or_no_num_bs_runs(self, tmp_path, num_bs):
        # files saved before num_bs was dropped carry "num_bs": 1
        doc = gen_scenario(2, seed=1).to_dict()
        assert "num_bs" not in doc
        if num_bs is not None:
            doc["num_bs"] = num_bs
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenario": str(tmp_path / "scenario.json"), "methods": ["algo"]}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report_algo.json").read_text())
        assert report["pf_objective"] == run_experiment(
            {"scenario": {"dues": 2, "seed": 1}}, tmp_path / "gen")[0]["algo"].pf_objective

    @pytest.mark.parametrize("num_bs", [None, 1])
    def test_every_key_ever_written_loads(self, num_bs):
        # the keys that Scenario.to_dict writes, and has ever written
        written = {"num_bs", "num_due", "positions_m", "tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz",
                   "pathloss", "walls", "seed"}
        doc = {"num_due": 2, "positions_m": [[100.0, 100.0], [10.0, 20.0], [150.0, 60.0]],
               "tx_power_dbm": [30.0, 20.0, 21.0], "bandwidth_hz": 1e7, "noise_psd_dbm_hz": -170.0,
               "pathloss": {"a": 36.0, "b": 34.0, "w_db": 4.0}, "walls": [[0, 1], [2, 0], [0, 3]], "seed": 5}
        if num_bs is not None:
            doc["num_bs"] = num_bs
        sc = Scenario.from_dict(doc)
        assert set(SCENARIO_KEYS) == set(sc.to_dict()) == written - {"num_bs"}
        assert sc.to_dict() == {k: v for k, v in doc.items() if k != "num_bs"}
        # null walls and seed read as absent: no walls, no seed
        sc = Scenario.from_dict({**doc, "walls": None, "seed": None})
        assert not sc.walls.any() and sc.seed is None

    @pytest.mark.parametrize("argv, seed", [
        (["gen", "--dues", "2", "--seed", "1180591620717411303424"], 2**70),
        (["gen", "--dues", "2", "--seed", "-1"], -1),
        (["compare", "--dues", "2", "--seeds", "1180591620717411303424"], 2**70),
        (["compare", "--dues", "2", "--seeds", "0..9223372036854775808"], 2**63),
    ])
    def test_seed_outside_what_a_scenario_file_holds_is_an_error(self, tmp_path, capsys, argv, seed):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: scenario seed must lie in [0, 2**63), got {seed}\n"
        assert not out.exists()

    def test_usage_errors(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        assert main(["gen", "--dues", "0", "--seed", "1", "--out", str(tmp_path / "s.json")]) == 1
        assert main(["frobnicate"]) == 1
        assert main(["compare", "--seeds", "5..3", "--dues", "2", "--out", str(tmp_path / "c.csv")]) == 1
        assert not (tmp_path / "c.csv").exists()
        capsys.readouterr()
        assert main(["gen", "--dues", "3", "--seed", "1", "--walls-random", "-2", "--out", str(tmp_path / "s.json")]) == 1
        assert capsys.readouterr().err == "error: walls_random must be nonnegative, got -2\n"
        assert not (tmp_path / "s.json").exists()
        assert main(["compare", "--seeds", "0..1", "--dues", "2", "--walls-random", "-1",
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr() == ("", "error: walls_random must be nonnegative, got -1\n")
        assert not (tmp_path / "c.csv").exists()
        # brute past its guard is refused before algo runs on any seed
        assert main(["compare", "--seeds", "0", "--dues", "13", "--out", str(tmp_path / "big.csv")]) == 1
        assert capsys.readouterr() == ("", "error: 14 servers would need 16383 patterns (guard 13)\n")
        assert not (tmp_path / "big.csv").exists()
