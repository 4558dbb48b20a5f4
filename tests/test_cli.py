import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pstlab.cli import GOLDEN_COUNTS_8, GOLDEN_RULED_OUT_8, _assert_golden_counts, main
from pstlab.generate import canonical_form, gen_connected_graphs
from pstlab.graphs import Graph, parse_graph6, path_graph, write_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_c4_all_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "cycle:4",
                               "--matrix", "laplacian", "--pairs", "all",
                               "--format", "jsonl")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert len(reports) == 6
        assert sum(1 for r in reports if r["verdict"] == "yes") == 2

    def test_k2_adjacency_pair(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--g6", "A_",
                               "--matrix", "adjacency", "--pairs", "0,1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "yes"
        assert payload["time"] == {"num": 1, "den": 2, "sqrt_delta": 1}
        assert payload["phase"] == {"s_num": 1, "s_den": 2}

    def test_path5_all_no_with_certificates(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "path:5",
                               "--matrix", "laplacian", "--pairs", "all",
                               "--format", "jsonl")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert len(reports) == 10
        assert all(r["verdict"] == "no" and r["certificate"] for r in reports)

    def test_show_support(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "path:3",
                               "--matrix", "adjacency", "--pairs", "0,2",
                               "--show-support", "--format", "jsonl")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert any("support_of" in line for line in lines)

    # sha256 of the stdout of analyze --show-support --format json, fixed
    # before the support profiles made their projections on demand
    SUPPORT_DIGESTS = {
        ("cycle:24", "0,12", "laplacian"):
            "31b1ecb2abeb31b4240d3d183a5c163af65e93ae2c7fc5ea2868dceb1a6ef586",
        ("cycle:24", "0,12", "adjacency"):
            "ef4f722fad1730212ed602e6cd5f79b5b3cb1f64a3ad988de0ec7632bda8236c",
        ("cycle:24", "0,12", "signless_laplacian"):
            "709527d76cc33b4dddbfe2f2431a9a98dc7a2cd737403fe1847cc0a66a75a5d5",
        ("hypercube:5", "0,31", "laplacian"):
            "832cb12e050298289376a96a68a785fa475602ac4c9b133fc76c2be0076e6073",
        ("hypercube:5", "0,31", "adjacency"):
            "b83eb84c62b14b4402b5d1c673155f8013d21974fb12c9d6798a71cdb06d2ee0",
        ("hypercube:5", "0,31", "signless_laplacian"):
            "d90ee0170ea68bbd5b0116929e9d7836047c8ea5e2a9f0bd31d0822df44cdf28",
    }

    @pytest.mark.parametrize("family,pairs,kind", sorted(SUPPORT_DIGESTS))
    def test_show_support_bytes_pinned(self, capsys, family, pairs, kind):
        code, out, _ = run_cli(capsys, "analyze", "--family", family, "--pairs", pairs,
                               "--matrix", kind, "--show-support", "--format", "json")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.SUPPORT_DIGESTS[family, pairs, kind]

    # sha256 of the stdout of analyze --pairs all --format jsonl, fixed while
    # every pair polynomial came from its own fraction-free elimination
    ALL_PAIRS_DIGESTS = {
        ("path:11", "laplacian"):
            "e24c485ae96752b81199c4c501c43e924b1df38d671d5372f9a26bbd9f7d608c",
        ("path:11", "adjacency"):
            "a975de8d421e434653b6aee9724626dc2f3eee4e7f547a1a7278466f99346a24",
        ("path:11", "signless_laplacian"):
            "7e56a5ca872b13442553fca85ce6628022f7c67435b9b2bb85ba7053b88ae9a4",
        ("star:9", "laplacian"):
            "7177ef676b1dbb37aa613096b5835970fdd455089eb03f31e7e21513ff38ea6d",
        ("star:9", "adjacency"):
            "7d9e6e607d9be5ca6d61c9a72e01830009323cc4410d17685ae16137dfbaeba4",
        ("star:9", "signless_laplacian"):
            "927b9d69c761c4817b89022de4e5d8825b7df7c5192f545b4b40db97bd05ab43",
        ("complete_minus_edge:8", "laplacian"):
            "a3e2b669225b627e044007808dad10bc5fe62425d10db78b180359dc0cbb1af7",
        ("complete_minus_edge:8", "adjacency"):
            "5664c3e6f9ab2285e925b3f02704e156b5192c6c1473954df7f1517f016e3d8b",
        ("complete_minus_edge:8", "signless_laplacian"):
            "77d68f2992d641b2a4f1a71db6259346bd08c4acea79a702698169fb560677f4",
        ("hypercube:3", "laplacian"):
            "49ac1edfd8041fa234dd376bcaf9db21ae617267c90fa2701971844a5e226ce3",
        ("hypercube:3", "adjacency"):
            "516393eff063acdbe9fc9b59abf47fa899eef1f62d7cd46fef9dc3d7a6f96436",
        ("hypercube:3", "signless_laplacian"):
            "ed65914150a7a2dffe9890a95e98b3744dfdc766729da6284b7c33520aaef3db",
    }

    @pytest.mark.parametrize("family,kind", sorted(ALL_PAIRS_DIGESTS))
    def test_all_pairs_bytes_pinned(self, capsys, family, kind):
        code, out, _ = run_cli(capsys, "analyze", "--family", family, "--pairs", "all",
                               "--matrix", kind, "--format", "jsonl")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.ALL_PAIRS_DIGESTS[family, kind]

    def test_bad_graph6_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--g6", "!!bad!!",
                               "--pairs", "0,1")
        assert code == 2 and "error" in err

    def test_non_ascii_graph6_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--g6", "A\xff", "--pairs", "0,1")
        assert code == 2 and "offset 1" in err
        corpus = tmp_path / "latin.g6"
        corpus.write_bytes(b"A_\nA\xff\n")
        code, _, err = run_cli(capsys, "survey", "--file", str(corpus),
                               "--workers", "1", "--format", "json")
        assert code == 2 and ":2:" in err

    def test_two_sources_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--g6", "A_",
                             "--family", "cycle:4", "--pairs", "all")
        assert code == 2

    def test_bad_pair_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--g6", "A_", "--pairs", "0,9")
        assert code == 2

    def test_bad_family_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--family", "moebius:5",
                             "--pairs", "all")
        assert code == 2

    def test_signless_kind_accepted(self, capsys):
        # C4 is bipartite, so its Q verdicts are its L verdicts
        code, out, _ = run_cli(capsys, "analyze", "--family", "cycle:4",
                               "--matrix", "signless", "--pairs", "all",
                               "--format", "jsonl")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert {r["kind"] for r in reports} == {"signless_laplacian"}
        assert [(r["u"], r["v"]) for r in reports if r["verdict"] == "yes"] == [(0, 2), (1, 3)]

    def test_unknown_kind_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--g6", "A_", "--pairs", "0,1",
                               "--matrix", "bogus")
        assert code == 2 and "unknown matrix kind 'bogus'" in err

    def test_disconnected_graph_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--g6", "B?")
        assert code == 2 and out == ""
        assert err == "error: perfect state transfer analysis rejects disconnected graphs\n"

    def test_internal_value_error_exits_1_naming_the_command(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("factor_support requires distinct roots")

        monkeypatch.setattr("pstlab.cli.decide", broken)
        code, _, err = run_cli(capsys, "analyze", "--family", "path:3", "--pairs", "0,2")
        assert code == 1
        assert "analyze" in err and "factor_support requires distinct roots" in err

    def test_directory_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--file", str(tmp_path),
                               "--pairs", "all")
        assert code == 2 and "error:" in err


class TestSurvey:
    def test_n4_json(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "4", "--pst",
                               "--workers", "1", "--format", "json")
        assert code == 0
        agg = json.loads(out)
        assert agg["connected"] == 6 and agg["lpst_pairs"] == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "4", "--workers", "1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "metric,value"
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_records_file(self, capsys, tmp_path):
        out_path = tmp_path / "recs.jsonl"
        code, _, _ = run_cli(capsys, "survey", "--n", "4", "--workers", "1",
                             "--out", str(out_path), "--format", "json")
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 6

    def test_deterministic_bytes_single_worker(self, capsys):
        _, out1, _ = run_cli(capsys, "survey", "--n", "5", "--workers", "1",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "survey", "--n", "5", "--workers", "1",
                             "--format", "json")
        assert out1 == out2

    def test_worker_count_invariant_aggregates(self, capsys):
        _, out1, _ = run_cli(capsys, "survey", "--n", "5", "--workers", "1",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "survey", "--n", "5", "--workers", "2",
                             "--format", "json")
        assert json.loads(out1) == json.loads(out2)

    def test_file_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\nC~\n")
        code, out, _ = run_cli(capsys, "survey", "--file", str(corpus),
                               "--workers", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["connected"] == 2

    def test_built_in_corpus_records_canonical_words(self, capsys, tmp_path):
        """survey --n records each generated graph's own word, which must
        be its canonical form."""
        out_path = tmp_path / "recs.jsonl"
        code, _, _ = run_cli(capsys, "survey", "--n", "7", "--workers", "2",
                             "--out", str(out_path), "--format", "json")
        assert code == 0
        words = [json.loads(line)["graph6"] for line in out_path.read_text().splitlines()]
        assert len(words) == 853
        assert all(w == canonical_form(parse_graph6(w)) for w in words)

    def test_relabelled_file_records_canonical_words(self, capsys, tmp_path):
        graphs = list(gen_connected_graphs(5))
        relabelled = [g.relabel([(v + 1 + k) % g.n for v in range(g.n)])
                      for k, g in enumerate(graphs)]
        corpus = tmp_path / "relabelled.g6"
        corpus.write_text("".join(write_graph6(g) + "\n" for g in relabelled))
        want = [write_graph6(g) for g in graphs]
        assert want != [write_graph6(g) for g in relabelled]
        for workers in ("1", "2"):
            out_path = tmp_path / f"recs{workers}.jsonl"
            code, _, _ = run_cli(capsys, "survey", "--file", str(corpus), "--workers",
                                 workers, "--out", str(out_path), "--format", "json")
            assert code == 0
            got = [json.loads(line)["graph6"] for line in out_path.read_text().splitlines()]
            assert got == want, workers

    @pytest.mark.parametrize("source", ["n7", "n6-pst", "mixed-file"])
    def test_worker_count_invariant_bytes(self, capsys, tmp_path, source):
        """One and two workers write the same stdout and the same records,
        byte for byte: on the built-in n = 7 corpus; on the built-in n = 6
        corpus with --pst, so the pair counts come back from the workers;
        and on a file whose orders change from line to line (n = 1..8, a
        disconnected graph, a 62-vertex path), so its chunks are short and
        of many sizes."""
        if source == "n7":
            argv = ["--n", "7"]
        elif source == "n6-pst":
            argv = ["--n", "6", "--pst"]
        else:
            graphs = [g for n in range(1, 9) for g in list(gen_connected_graphs(n))[:40]]
            graphs[5:5] = [Graph(5, [(0, 1), (2, 3)]), path_graph(62), Graph(3)]
            graphs.append(path_graph(62))
            corpus = tmp_path / "mixed.g6"
            corpus.write_text("".join(write_graph6(g) + "\n" for g in graphs))
            argv = ["--file", str(corpus)]
        outputs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"recs{workers}.jsonl"
            code, out, _ = run_cli(capsys, "survey", *argv, "--workers", workers,
                                   "--out", str(out_path), "--format", "json")
            assert code == 0
            outputs.append((out, out_path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["total"] == {"n7": 853, "n6-pst": 112,
                                                      "mixed-file": 155}[source]

    def test_directory_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "survey", "--file", str(tmp_path),
                               "--workers", "1", "--format", "json")
        assert code == 2 and "error:" in err

    def test_assert_paper_needs_7_or_8(self, capsys, tmp_path):
        """A size --assert-paper has no figures for is a configuration
        error, found before the survey runs: nothing on stdout, no records."""
        out_path = tmp_path / "recs.jsonl"
        code, out, err = run_cli(capsys, "survey", "--n", "5", "--workers", "1",
                                 "--assert-paper", "--format", "json",
                                 "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith("error:") and "--assert-paper" in err

    def test_assert_paper_refuses_file_before_reading(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("".join(write_graph6(g) + "\n" for g in gen_connected_graphs(4)))
        out_path = tmp_path / "recs.jsonl"
        code, out, err = run_cli(capsys, "survey", "--file", str(corpus), "--workers", "1",
                                 "--assert-paper", "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert err.startswith("error:")

    def test_golden_ruled_out_readings_checked_separately(self, capsys):
        agg = {**GOLDEN_COUNTS_8,
               "ruled_out_reading_small_twins": GOLDEN_RULED_OUT_8,
               "ruled_out_reading_no_admissible_pair": 324}
        assert _assert_golden_counts(8, agg) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        mismatches = captured.err.strip().splitlines()
        assert mismatches == ["GOLDEN-COUNT MISMATCH ruled_out_reading_no_admissible_pair: "
                              f"got 324, expected {GOLDEN_RULED_OUT_8}"]

    def test_env_worker_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PSTLAB_WORKERS", "not-a-number")
        code, _, _ = run_cli(capsys, "survey", "--n", "4", "--format", "json")
        assert code == 2

    def test_env_worker_count_below_one(self, capsys, monkeypatch):
        monkeypatch.setenv("PSTLAB_WORKERS", "-4")
        code, _, err = run_cli(capsys, "survey", "--n", "4", "--format", "json")
        assert code == 2
        assert err.startswith("error:") and "PSTLAB_WORKERS" in err

    def test_flag_worker_count_below_one(self, capsys):
        code, _, err = run_cli(capsys, "survey", "--n", "4", "--workers", "0",
                               "--format", "json")
        assert code == 2
        assert err.startswith("error:") and "--workers" in err


class TestTrees:
    def test_adjacency_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "--max-n", "4",
                               "--matrix", "adjacency", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        found = {(r["graph6"], r["u"], r["v"]) for r in payload["yes_reports"]}
        assert ("A_", 0, 1) in found          # the one-edge tree
        assert len(payload["yes_reports"]) == 2  # plus the path on three vertices

    def test_laplacian_small_sweep_empty(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "--max-n", "6",
                               "--matrix", "laplacian", "--format", "json")
        assert code == 0
        assert json.loads(out)["yes_reports"] == []

    def test_cap(self, capsys):
        code, _, _ = run_cli(capsys, "trees", "--max-n", "13",
                             "--matrix", "laplacian")
        assert code == 2

    def test_signless_kind_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "trees", "--max-n", "6",
                               "--matrix", "signless", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == "signless_laplacian"
        assert [(r["graph6"], r["u"], r["v"]) for r in payload["yes_reports"]] == [("A_", 0, 1)]


class TestSimulate:
    def test_p2_curve(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--family", "path:2",
                               "--matrix", "laplacian", "--pairs", "0,1",
                               "--t-max", "3.141592653589793", "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,fidelity"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        expect = [0.0, 0.5, 1.0, 0.5, 0.0]
        assert all(abs(a - b) < 1e-9 for a, b in zip(values, expect))

    def test_t_zero_distinct_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--family", "cycle:4",
                               "--matrix", "laplacian", "--pairs", "0,2",
                               "--t-max", "2.0", "--steps", "2")
        assert code == 0
        first = float(out.strip().splitlines()[1].split(",")[1])
        assert first < 1e-12

    def test_hypercube_curve_bytes_pinned(self, capsys):
        # sha256 of the stdout of the 5-cube antipodal curve, fixed when
        # every step built the matrix and its eigh again; one eigh per run
        # must give the same bytes
        code, out, _ = run_cli(capsys, "simulate", "--family", "hypercube:5",
                               "--matrix", "adjacency", "--pairs", "0,31",
                               "--t-max", "3.2", "--steps", "2000")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "8113cddc91ab3948a9bcf0c99c9d9cc75a189021ad3a5e1e42b82f7deb0c65f0")

    def test_requires_pair(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--family", "path:2",
                             "--pairs", "all", "--t-max", "1.0", "--steps", "3")
        assert code == 2

    def test_step_minimum(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--family", "path:2",
                             "--pairs", "0,1", "--t-max", "1.0", "--steps", "1")
        assert code == 2

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max_exit_2(self, capsys, t_max):
        """A time grid to nan or inf is bad configuration: exit 2 before
        the CSV header, not rows of nan."""
        code, out, err = run_cli(capsys, "simulate", "--family", "path:2",
                                 "--pairs", "0,1", "--t-max", t_max, "--steps", "3")
        assert code == 2 and out == "" and "error:" in err


class TestGenerate:
    def test_trees_n4(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "trees", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_trees_n1(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "trees", "--n", "1")
        assert code == 0
        assert out.strip() == "@"

    def test_graphs_n4(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "graphs", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_sizes_outside_the_limits_exit_2(self, capsys):
        for what, n, message in (("graphs", "9", "connected generation limited to 1 <= n <= 8"),
                                 ("trees", "0", "tree generation limited to 1 <= n <= 16")):
            code, out, err = run_cli(capsys, "generate", what, "--n", n)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "generate", "trees", "--n", "7")
        _, out2, _ = run_cli(capsys, "generate", "trees", "--n", "7")
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self):
        # pytest's pythonpath setting reaches this process only, so the
        # child gets the source tree on its own PYTHONPATH
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "pstlab.cli", "generate", "trees", "--n", "3"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Bg"
