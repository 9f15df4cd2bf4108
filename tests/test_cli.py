import json
import time

import pytest

from groverwild import cli, synthesis
from groverwild.cli import main
from groverwild.errors import InputError
from groverwild.scenarios import DEMO_DATASET, bundled_scenarios


@pytest.fixture
def demo_data(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("".join(s + "\n" for s in DEMO_DATASET), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


class TestEncode:
    def test_prints_codec_and_entities(self, demo_data, tmp_path, capsys):
        assert run(["encode", "--data", demo_data, "--out", tmp_path / "out"]) == 0
        out = capsys.readouterr().out
        assert "codec width: 1" in out
        assert "000" in out and "111" in out
        assert (tmp_path / "out" / "codec.json").exists()
        assert (tmp_path / "out" / "entities.txt").read_text().splitlines() == list(
            DEMO_DATASET
        )

    def test_unequal_lengths_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a\nab\n", encoding="utf-8")
        assert run(["encode", "--data", bad, "--out", tmp_path / "out"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_codec_file_honored(self, demo_data, tmp_path, capsys):
        codec_file = tmp_path / "codec.json"
        codec_file.write_text(
            json.dumps({"width": 2, "code": {"0": "00", "1": "11"}}), encoding="utf-8"
        )
        assert (
            run(["encode", "--data", demo_data, "--codec", codec_file,
                 "--out", tmp_path / "out"])
            == 0
        )
        out = capsys.readouterr().out
        assert "codec width: 2" in out
        assert "001100" in out  # "010" under the explicit two-bit code

    def test_missing_data_flag(self, tmp_path, capsys):
        assert run(["encode", "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("command", ["encode", "search", "verify"])
    def test_non_utf8_dataset_exit_2(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\n")  # printf '\xff\n'
        assert run([command, "--data", bad, "--term", "0*", "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read dataset file")
        assert len(err.splitlines()) == 1

    def test_non_utf8_codec_exit_2(self, demo_data, tmp_path, capsys):
        bad = tmp_path / "codec.json"
        bad.write_bytes(b"\xff\n")
        assert run(["encode", "--data", demo_data, "--codec", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read codec file")
        assert len(err.splitlines()) == 1


class TestCompile:
    def test_two_match_summary(self, demo_data, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["compile", "--data", demo_data, "--term", "01*", "--out", out_dir]) == 0
        stdout = capsys.readouterr().out
        assert "marked states (m): 2" in stdout
        assert "iterations: 1" in stdout
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["marked_count"] == 2
        assert summary["iterations"] == 1
        assert (out_dir / "circuit.json").exists()
        assert (out_dir / "gate_stats.json").exists()
        assert (out_dir / "oracle_expression.txt").exists()

    def test_control_warning(self, demo_data, tmp_path, capsys):
        assert run(["compile", "--data", demo_data, "--term", "10*", "--out", tmp_path / "o"]) == 0
        stdout = capsys.readouterr().out
        assert "warning: no loaded string matches" in stdout

    def test_emit_qasm(self, demo_data, tmp_path):
        out_dir = tmp_path / "out"
        assert (
            run(["compile", "--data", demo_data, "--term", "01*", "--emit-qasm",
                 "--out", out_dir])
            == 0
        )
        assert "OPENQASM 2.0;" in (out_dir / "circuit.qasm").read_text()

    def test_bad_term_syntax_exit_2(self, demo_data, tmp_path, capsys):
        assert run(["compile", "--data", demo_data, "--term", "0*1", "--out", tmp_path / "o"]) == 2

    def test_no_terms_exit_2(self, demo_data, tmp_path):
        assert run(["compile", "--data", demo_data, "--out", tmp_path / "o"]) == 2


class TestSearch:
    def test_two_match(self, demo_data, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["search", "--data", demo_data, "--term", "01*", "--out", out_dir]) == 0
        result = json.loads((out_dir / "search_result.json").read_text())
        assert [m["string"] for m in result["matches"]] == ["010", "011"]
        for m in result["matches"]:
            assert abs(m["probability"] - 0.5) < 1e-9

    def test_one_match_probability(self, demo_data, tmp_path):
        out_dir = tmp_path / "out"
        assert run(["search", "--data", demo_data, "--term", "00*", "--out", out_dir]) == 0
        result = json.loads((out_dir / "search_result.json").read_text())
        assert [m["string"] for m in result["matches"]] == ["000"]
        assert abs(result["matches"][0]["probability"] - 0.9453) < 1e-4

    def test_control_uniform_note(self, demo_data, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["search", "--data", demo_data, "--term", "10*", "--out", out_dir]) == 0
        assert "no matches" in capsys.readouterr().out
        result = json.loads((out_dir / "search_result.json").read_text())
        assert result["uniform"] is True
        assert result["matches"] == []

    def test_statevector_and_probability_dumps(self, demo_data, tmp_path):
        out_dir = tmp_path / "out"
        assert run(["search", "--data", demo_data, "--term", "01*", "--out", out_dir]) == 0
        pairs = json.loads((out_dir / "statevector.json").read_text())
        assert len(pairs) == 8 and all(len(p) == 2 for p in pairs)
        probs = json.loads((out_dir / "probabilities.json").read_text())
        assert abs(sum(probs) - 1.0) < 1e-9
        assert abs(probs[0b010] - 0.5) < 1e-9

    def test_search_matches_classical_on_random_fixtures(self, tmp_path):
        import random

        from conftest import random_instance
        from groverwild.encoding import classical_match

        rng = random.Random(99)
        for i in range(10):
            dataset, terms, codec = random_instance(rng, max_chars=4)
            data_file = tmp_path / f"d{i}.txt"
            data_file.write_text("".join(s + "\n" for s in dataset), encoding="utf-8")
            codec_file = tmp_path / f"c{i}.json"
            codec_file.write_text(json.dumps(codec.to_json_dict()), encoding="utf-8")
            surface = {
                "prefix": "{}*",
                "suffix": "*{}",
                "substring": "*{}*",
                "exact": "{}",
            }
            args = ["search", "--data", data_file, "--codec", codec_file,
                    "--out", tmp_path / f"o{i}"]
            for t in terms:
                args += ["--term", surface[t.kind.value].format(t.text)]
            assert run(args) == 0
            result = json.loads((tmp_path / f"o{i}" / "search_result.json").read_text())
            assert sorted(m["string"] for m in result["matches"]) == sorted(
                classical_match(dataset, terms)
            )


class TestVerify:
    def test_bundled_suite_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "two-match: PASS" in out
        assert "no-match: CONTROL_PASS" in out
        assert "substring-1: PASS" in out

    def test_corrupted_oracle_fails(self, capsys):
        assert run(["verify", "--corrupt-oracle"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_dataset_file(self, tmp_path, capsys):
        assert run(["verify", "--data", tmp_path / "nope.txt", "--term", "a*"]) == 2

    def test_no_reverse_also_passes(self, capsys):
        assert run(["verify", "--no-reverse"]) == 0


class TestExperiment:
    def test_default_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run(["experiment", "--out", out_dir]) == 0
        stdout = capsys.readouterr().out
        assert "scenario two-match: consistent" in stdout
        assert "scenario no-match: inconsistent" in stdout
        report = json.loads((out_dir / "experiment.json").read_text())
        assert report["scenarios"]["two-match"]["verdict_vs_classical"] == "PASS"
        assert report["scenarios"]["one-match"]["verdict_vs_classical"] == "PASS"
        assert report["scenarios"]["one-match"]["report"]["decoded"] == ["000"]
        assert (
            report["scenarios"]["no-match"]["verdict_vs_classical"] == "CONTROL_PASS"
        )
        csv_lines = (out_dir / "experiment.csv").read_text().splitlines()
        assert csv_lines[0] == "trial,scenario,top_states"
        assert len(csv_lines) == 1 + 3 * 6

    def test_noisy_cost_refused_before_any_work(self, tmp_path, capsys):
        # 16 qubits at the default 6 trials x 1024 shots: far above 2^36 updates
        data = tmp_path / "wide.txt"
        data.write_text("".join(s * 2 + "\n" for s in ("abcd", "dcba", "aabb")), encoding="utf-8")
        start = time.perf_counter()
        assert run(["experiment", "--data", data, "--term", "a*", "--out", tmp_path / "o"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: 6 noisy trials of 1024 shots over ")
        assert err.endswith(f"; at most {1 << 36} are supported\n") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_noisy_cost_bound_is_exact(self, monkeypatch):
        scenario = next(s for s in bundled_scenarios() if s.name == "one-match")
        config = cli.RunConfig(shots=16, trials=2)
        pipeline = cli.compile_pipeline(scenario.dataset, scenario.terms())
        updates = 2 * 16 * (pipeline.gate_count << 3)
        monkeypatch.setattr(cli, "_MAX_NOISY_UPDATES", updates)
        cli.run_scenario(scenario, config)
        monkeypatch.setattr(cli, "_MAX_NOISY_UPDATES", updates - 1)
        with pytest.raises(InputError, match=f"would take {updates} amplitude updates"):
            cli.run_scenario(scenario, config)

    def test_single_trial_exit_2(self, tmp_path, capsys):
        assert run(["experiment", "--trials", "1", "--out", tmp_path / "o"]) == 2

    def test_corrupted_oracle_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert run(["experiment", "--corrupt-oracle", "--shots", "128", "--trials", "2",
                    "--out", out_dir]) == 1
        assert "verdict FAIL" in capsys.readouterr().out
        # the artifacts are still written, so the failure can be inspected
        assert (out_dir / "experiment.json").exists()

    def test_decodes_agreed_states_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.decode_results

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "decode_results", counting)
        assert run(["experiment", "--shots", "128", "--trials", "2", "--out", tmp_path / "o"]) == 0
        # one decode per consistent scenario (one-match, two-match), none for the control
        assert len(calls) == 2

    def test_custom_noise_flag(self, tmp_path):
        assert (
            run(["experiment", "--noise", "0,0,0", "--shots", "64", "--trials", "2",
                 "--out", tmp_path / "o"])
            == 0
        )

    def test_bad_noise_flag(self, tmp_path, capsys):
        assert run(["experiment", "--noise", "0.1,0.2", "--out", tmp_path / "o"]) == 2

    def test_custom_data_with_codec_file(self, demo_data, tmp_path):
        codec_file = tmp_path / "codec.json"
        codec_file.write_text(
            json.dumps({"width": 2, "code": {"0": "00", "1": "01"}}), encoding="utf-8"
        )
        out_dir = tmp_path / "o"
        assert run(["experiment", "--data", demo_data, "--codec", codec_file, "--term", "01*",
                    "--shots", "256", "--trials", "2", "--out", out_dir]) == 0
        report = json.loads((out_dir / "experiment.json").read_text())
        # the 2-bit codec makes n = 6, so m = 2 takes 4 rounds instead of 1
        assert report["scenarios"]["custom"]["iterations"] == 4
        assert report["scenarios"]["custom"]["verdict_vs_classical"] == "PASS"
        assert (out_dir / "experiment.csv").read_bytes().startswith(
            b"trial,scenario,top_states\r\n"
        )

    @pytest.mark.parametrize("command", ["verify", "experiment"])
    def test_codec_file_missing_a_character_exit_2(self, command, demo_data, tmp_path, capsys):
        codec_file = tmp_path / "codec.json"
        codec_file.write_text(json.dumps({"width": 1, "code": {"0": "0"}}), encoding="utf-8")
        assert run([command, "--data", demo_data, "--codec", codec_file, "--term", "01*",
                    "--out", tmp_path / "o"]) == 2
        assert "missing from codec file" in capsys.readouterr().err


class TestDeterminismAndSeeds:
    def test_identical_config_identical_bytes(self, demo_data, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run(["experiment", "--shots", "128", "--trials", "2", "--out", d]) == 0
            assert run(["search", "--data", demo_data, "--term", "01*", "--out", d]) == 0
            assert run(["compile", "--data", demo_data, "--term", "01*",
                        "--emit-qasm", "--out", d]) == 0
        for name in (
            "experiment.csv",
            "experiment.json",
            "search_result.json",
            "circuit.json",
            "circuit.qasm",
            "summary.json",
        ):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_changes_experiment(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["experiment", "--shots", "128", "--trials", "2", "--seed", "1", "--out", a]) == 0
        assert run(["experiment", "--shots", "128", "--trials", "2", "--seed", "2", "--out", b]) == 0
        assert (a / "experiment.csv").read_bytes() != (b / "experiment.csv").read_bytes()

    def test_gw_seed_env_overrides_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("GW_SEED", "2")
        assert run(["experiment", "--shots", "128", "--trials", "2", "--out", a]) == 0
        monkeypatch.delenv("GW_SEED")
        assert run(["experiment", "--shots", "128", "--trials", "2", "--seed", "2", "--out", b]) == 0
        assert (a / "experiment.json").read_bytes() == (b / "experiment.json").read_bytes()

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("GW_SEED", "5")
        assert run(["experiment", "--shots", "128", "--trials", "2", "--seed", "3", "--out", a]) == 0
        monkeypatch.delenv("GW_SEED")
        assert run(["experiment", "--shots", "128", "--trials", "2", "--seed", "3", "--out", b]) == 0
        assert (a / "experiment.json").read_bytes() == (b / "experiment.json").read_bytes()

    def test_bad_gw_seed_exit_2(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("GW_SEED", "xyz")
        assert run(["experiment", "--out", tmp_path / "o"]) == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert run(["experiment", "--seed", "-3", "--out", tmp_path / "o"]) == 2


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert run([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "args, line",
        [
            (["--term"], "error: argument --term: expected one argument\n"),
            (["--term", "0*", "--shots", "x"], "error: argument --shots: invalid int value: 'x'\n"),
        ],
    )
    def test_usage_error_is_one_error_line(self, args, line, demo_data, tmp_path, capsys):
        assert run(["search", "--data", demo_data, *args, "--out", tmp_path / "o"]) == 2
        captured = capsys.readouterr()
        assert captured.err == line
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [["--help"], ["search", "--help"]])
    def test_help_exit_0(self, args, capsys):
        assert run(args) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: groverwild")
        assert captured.err == ""

    def test_iterations_override(self, demo_data, tmp_path):
        out_dir = tmp_path / "out"
        assert (
            run(["search", "--data", demo_data, "--term", "01*", "--iterations", "0",
                 "--out", out_dir])
            == 0
        )
        result = json.loads((out_dir / "search_result.json").read_text())
        # k = 0 leaves the uniform superposition: every match sits at 1/8.
        assert all(abs(m["probability"] - 0.125) < 1e-9 for m in result["matches"])

    def test_negative_iterations_exit_2(self, demo_data, tmp_path):
        assert (
            run(["search", "--data", demo_data, "--term", "01*", "--iterations", "-1",
                 "--out", tmp_path / "o"])
            == 2
        )

    def test_huge_iterations_refused_before_assembly(self, demo_data, tmp_path, capsys):
        start = time.perf_counter()
        rc = run(["search", "--data", demo_data, "--term", "01*",
                  "--iterations", "1000000000000", "--out", tmp_path / "o"])
        elapsed = time.perf_counter() - start
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at most" in err
        assert elapsed < 5.0
        assert not (tmp_path / "o").exists()


class TestGateListOnlyWhereNeeded:
    """No command unrolls the Grover gate list: noiseless search and verify
    skip the gates, compile and experiment work on the blocks."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("build_grover_circuit called")

    def test_search_and_verify_skip_the_gate_list(self, demo_data, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_grover_circuit", self.refuse)
        monkeypatch.setattr(synthesis, "build_grover_circuit", self.refuse)
        assert run(["search", "--data", demo_data, "--term", "01*", "--out", tmp_path / "o"]) == 0
        assert run(["verify"]) == 0
        assert run(["verify", "--data", demo_data, "--term", "0*"]) == 0
        assert run(["compile", "--emit-qasm", "--data", demo_data, "--term", "01*",
                    "--out", tmp_path / "c"]) == 0
        assert run(["experiment", "--shots", "128", "--trials", "2", "--out", tmp_path / "e"]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["compile", "--data", "{data}", "--term", "01*"],
            ["experiment", "--shots", "128", "--trials", "2"],
        ],
    )
    def test_compile_and_experiment_build_it(self, args, demo_data, tmp_path, monkeypatch, capsys):
        calls = []
        real = cli.grover_blocks

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli, "grover_blocks", counting)
        monkeypatch.setattr(cli, "build_grover_circuit", self.refuse)
        argv = [str(demo_data) if a == "{data}" else a for a in args]
        assert run(argv + ["--out", tmp_path / "o"]) == 0
        assert calls

    @pytest.mark.parametrize("command", ["search", "verify", "compile"])
    @pytest.mark.parametrize("iterations", ["-1", "1000000000000"])
    def test_iteration_refusals_on_every_path(self, command, iterations, demo_data, tmp_path,
                                              capsys):
        start = time.perf_counter()
        rc = run([command, "--data", demo_data, "--term", "01*", "--iterations", iterations,
                  "--out", tmp_path / "o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "o").exists()

    def test_search_and_verify_skip_oracle_synthesis(self, demo_data, tmp_path, monkeypatch,
                                                     capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle synthesized on a noiseless path")

        monkeypatch.setattr(cli, "synthesize_phase_oracle", refuse)
        monkeypatch.setattr(synthesis, "anf", refuse)
        assert run(["search", "--data", demo_data, "--term", "01*", "--out", tmp_path / "o"]) == 0
        assert run(["verify"]) == 0
        assert run(["verify", "--data", demo_data, "--term", "0*"]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["compile", "--data", "{data}", "--term", "01*"],
            ["experiment", "--shots", "128", "--trials", "2"],
        ],
    )
    def test_compile_and_experiment_synthesize_the_oracle(self, args, demo_data, tmp_path,
                                                          monkeypatch, capsys):
        calls = []
        real = cli.synthesize_phase_oracle

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli, "synthesize_phase_oracle", counting)
        argv = [str(demo_data) if a == "{data}" else a for a in args]
        assert run(argv + ["--out", tmp_path / "o"]) == 0
        assert calls

    @pytest.mark.parametrize("command", ["search", "verify", "compile"])
    @pytest.mark.parametrize(
        "iterations, line",
        [
            pytest.param("-1", "error: iteration count must be >= 0, got -1\n", id="negative"),
            pytest.param(
                "1000000000000",
                "error: 1000000000000 iterations would unroll 16000000000003 gates;"
                " at most 33554432 are supported\n",
                id="huge",
            ),
        ],
    )
    def test_iteration_refusal_lines(self, command, iterations, line, demo_data, tmp_path,
                                     capsys):
        rc = run([command, "--data", demo_data, "--term", "01*", "--iterations", iterations,
                  "--out", tmp_path / "o"])
        assert rc == 2
        assert capsys.readouterr().err == line
