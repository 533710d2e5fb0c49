"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import io
import multiprocessing

import pytest

from repro.cli import main
from repro.hypergraph.io import save_native


def run_cli(*argv: str) -> tuple:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def fig1_files(tmp_path, fig1_data, fig1_query):
    data_path = str(tmp_path / "data.hg")
    query_path = str(tmp_path / "query.hg")
    save_native(fig1_data, data_path)
    save_native(fig1_query, query_path)
    return data_path, query_path


class TestDatasets:
    def test_lists_all_ten(self):
        code, output = run_cli("datasets")
        assert code == 0
        for name in ("HC", "MA", "AR"):
            assert name in output


class TestStats:
    def test_stats_from_file(self, fig1_files):
        data_path, _ = fig1_files
        code, output = run_cli("stats", data_path)
        assert code == 0
        assert "|V|: 7" in output

    def test_stats_from_dataset_name(self):
        code, output = run_cli("stats", "HC")
        assert code == 0
        assert "dataset: HC" in output

    def test_missing_file_errors(self):
        code, output = run_cli("stats", "/nonexistent/file.hg")
        assert code == 1
        assert "error:" in output


class TestSample:
    def test_sample_writes_query(self, tmp_path, fig1_files):
        out_path = str(tmp_path / "q.hg")
        code, output = run_cli(
            "sample", "CH", "--setting", "q2", "--out", out_path
        )
        assert code == 0
        assert "sampled q2 query" in output
        from repro.hypergraph.io import load_native

        query = load_native(out_path)
        assert query.num_edges == 2

    def test_unknown_setting_errors(self, tmp_path):
        code, output = run_cli(
            "sample", "CH", "--setting", "q9", "--out", str(tmp_path / "q.hg")
        )
        assert code == 1


class TestPlan:
    def test_plan_output(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli("plan", data_path, query_path)
        assert code == 0
        assert "SCAN" in output and "SINK" in output

    def test_plan_explain(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli("plan", data_path, query_path, "--explain")
        assert code == 0
        assert "PlanEstimate" in output


class TestMatch:
    def test_match_hgmatch(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli("match", data_path, query_path)
        assert code == 0
        assert output.startswith("2 embeddings")

    @pytest.mark.parametrize("engine", ["CFL-H", "DAF-H", "CECI-H", "RapidMatch-H"])
    def test_match_baselines(self, fig1_files, engine):
        data_path, query_path = fig1_files
        code, output = run_cli("match", data_path, query_path, "--engine", engine)
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_match_parallel(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli("match", data_path, query_path, "--workers", "2")
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_match_processes(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--executor", "processes", "--shards", "2",
        )
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_match_shards_implies_processes(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path, "--shards", "2"
        )
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_shards_rejected_for_non_process_executors(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--executor", "threads", "--shards", "4",
        )
        assert code == 1
        assert "--executor processes" in output

    def test_baselines_reject_executor_flags(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--engine", "CFL-H", "--executor", "processes", "--shards", "2",
        )
        assert code == 1
        assert "HGMatch engine only" in output

    def test_print_embeddings_rejects_executor(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--print-embeddings", "--executor", "processes", "--shards", "2",
        )
        assert code == 1
        assert "sequential" in output

    def test_the_sockets_spelling_is_refused(self, fig1_files, capsys):
        """``processes`` is the pool's one name."""
        data_path, query_path = fig1_files
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "match", data_path, query_path,
                "--executor", "sockets", "--shards", "2",
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'sockets'" in capsys.readouterr().err

    def test_match_hosts_implies_processes(self, fig1_files, fig1_data):
        import threading

        from repro.parallel import ShardWorker

        data_path, query_path = fig1_files
        workers = [
            ShardWorker(fig1_data, shard_id) for shard_id in range(2)
        ]
        addresses = [worker.bind() for worker in workers]
        threads = [
            threading.Thread(
                target=worker.serve_forever,
                kwargs={"max_sessions": 1},
                daemon=True,
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        try:
            hosts = ",".join(f"{host}:{port}" for host, port in addresses)
            code, output = run_cli(
                "match", data_path, query_path, "--hosts", hosts
            )
            assert code == 0
            assert output.startswith("2 embeddings")
        finally:
            for worker in workers:
                worker.close()

    def test_hosts_rejected_for_non_socket_executors(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--executor", "threads", "--hosts", "localhost:7441",
        )
        assert code == 1
        assert "--hosts applies to --executor processes, not" in output

    def test_hosts_shards_contradiction(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--hosts", "localhost:7441,localhost:7442", "--shards", "3",
        )
        assert code == 1
        assert "contradicts" in output

    def test_bad_host_address(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path, "--hosts", "no-port-here"
        )
        assert code == 1
        assert "host:port" in output

    def test_match_simulated(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--executor", "simulated", "--workers", "3",
        )
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_print_embeddings(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path, "--print-embeddings"
        )
        assert code == 0
        assert output.count("{") >= 2

    def test_serve_shard_rejects_bad_shard_arithmetic(self, fig1_files):
        # A shard id is only a name now (no --num-shards to bound it);
        # the arithmetic left is that it is a 0-based index.
        data_path, _ = fig1_files
        code, output = run_cli("serve-shard", data_path, "--shard-id", "-1")
        assert code == 1
        assert "--shard-id must be >= 0" in output

    def test_serve_shard_serves_one_session(self, fig1_files, fig1_data):
        import io
        import threading

        from repro import HGMatch
        from repro.cli import main as cli_main
        from repro.parallel import ShardPool

        data_path, _ = fig1_files
        out = io.StringIO()
        # Pre-bind so the port is known before the server thread starts.
        ready = threading.Event()
        result = {}

        def serve():
            result["code"] = cli_main(
                [
                    "serve-shard", data_path, "--shard-id", "0",
                    "--max-sessions", "1",
                ],
                out=out,
            )

        class SignallingOut(io.StringIO):
            def flush(self):
                ready.set()

        out = SignallingOut()
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=10.0)
        banner = out.getvalue()
        address = banner.strip().rsplit(" on ", 1)[1]
        host, port = address.rsplit(":", 1)
        engine = HGMatch(fig1_data)
        executor = ShardPool(addresses=[(host, int(port))])
        try:
            query = fig1_data  # any connected query; the data itself works
            assert executor.run(engine, query).embeddings == engine.count(
                query
            )
        finally:
            executor.close()
            engine.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert result["code"] == 0

    def test_disconnected_query_errors(self, tmp_path, fig1_files):
        from repro import Hypergraph

        data_path, _ = fig1_files
        bad = Hypergraph(["A", "B", "A", "B"], [{0, 1}, {2, 3}])
        bad_path = str(tmp_path / "bad.hg")
        save_native(bad, bad_path)
        code, output = run_cli("match", data_path, bad_path)
        assert code == 1
        assert "error:" in output


class TestLabelTypes:
    """A query file reads its labels back as strings; a built-in
    dataset has int labels.  ``match`` and ``plan`` refuse the pair
    (``error: ...``, exit 1) instead of answering a silent 0; with the
    data as a native file too, both sides agree and the count is the
    true one."""

    @pytest.fixture
    def sampled(self, tmp_path):
        path = str(tmp_path / "q.hg")
        code, _ = run_cli(
            "sample", "SB", "--setting", "q3", "--seed", "7", "--out", path
        )
        assert code == 0
        return path

    @pytest.mark.parametrize("command", ["match", "plan"])
    def test_a_dataset_name_with_a_query_file_is_refused(
        self, sampled, command
    ):
        code, output = run_cli(command, "SB", sampled)
        assert code == 1
        assert output.startswith(
            "error: query vertex labels are str but the data graph's "
            "are int"
        )

    def test_both_as_native_files_count_the_true_count(
        self, tmp_path, sampled
    ):
        from repro import HGMatch, Hypergraph
        from repro.datasets import load_dataset
        from repro.hypergraph.io import load_native

        data = load_dataset("SB")
        query = load_native(sampled)
        true_count = HGMatch(data).count(Hypergraph(
            [int(label) for label in query.labels], query.edges
        ))
        data_path = str(tmp_path / "sb.hg")
        save_native(data, data_path)
        code, output = run_cli("match", data_path, sampled)
        assert code == 0
        assert int(output.split()[0]) == true_count > 0


class TestPoolSizeFlags:
    """The pool is one number: ``--shards N`` workers, all
    interchangeable (``--hosts`` fixes N to the address count)."""

    def test_pool_size_does_not_care_which_spelling_was_typed(
        self, fig1_files
    ):
        """Four members whether the pool is named (``--executor
        processes``) or implied by ``--shards`` alone (the next test)."""
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--executor", "processes", "--shards", "4",
        )
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_shards_implies_processes(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path, "--shards", "4",
        )
        assert code == 0
        assert output.startswith("2 embeddings")

    def test_shards_rejected_for_non_socket_executors(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--executor", "threads", "--shards", "2",
        )
        assert code == 1
        assert "--shards applies to" in output

    def test_hosts_contradicting_shards(self, fig1_files):
        data_path, query_path = fig1_files
        code, output = run_cli(
            "match", data_path, query_path,
            "--hosts", "h:1,h:2,h:3", "--shards", "2",
        )
        assert code == 1
        assert "contradicts" in output

    def test_serve_shard_rejects_a_negative_name(self, fig1_files):
        data_path, _ = fig1_files
        code, output = run_cli(
            "serve-shard", data_path, "--shard-id", "-2",
        )
        assert code == 1
        assert "--shard-id must be >= 0" in output

    def test_serve_shard_banner_names_the_member(self, fig1_files):
        data_path, _ = fig1_files
        code, output = run_cli(
            "serve-shard", data_path, "--shard-id", "2", "--max-sessions", "0",
        )
        assert code == 0
        assert "serving shard 2 of" in output


class TestRetiredFlags:
    """The placement and re-cut flags went with the row shards, the
    replica flags with the grid: a pool member holds the whole graph and
    is named by one integer, so there is nothing to place, replicate,
    bound by a shard count or rebalance.  The discovery flags went with
    the registry: a member heartbeats its coordinator on the data
    connection, and a restart keeps its port.  Each is an unknown
    argument now, refused by the parser before anything is loaded or
    spawned."""

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("match", ("--rebalance",)),
            ("match", ("--sharding", "balanced")),
            ("serve-shard", ("--sharding", "uniform")),
            ("serve-shard", ("--num-shards", "2")),
            ("serve-shard", ("--num-replicas", "2")),
            ("serve-shard", ("--replica-id", "1")),
            ("match", ("--replicas", "2")),
            ("supervise", ("--replicas", "2")),
            ("serve-match", ("--sharding", "balanced")),
            ("supervise", ("--sharding", "balanced")),
            ("supervise", ("--registry",)),
            ("serve-shard", ("--heartbeat-interval", "0.1")),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_a_retired_flag_is_an_unknown_argument(
        self, fig1_files, capsys, command, flags
    ):
        data_path, query_path = fig1_files
        argv = {
            "match": ["match", data_path, query_path],
            "serve-shard": ["serve-shard", data_path, "--shard-id", "0"],
            "serve-match": ["serve-match", data_path],
            "supervise": ["supervise", data_path, "--num-shards", "1"],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, *flags)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in (
            capsys.readouterr().err
        )


class TestAddressFlags:
    """``--connect`` goes through the one ``host:port`` parser
    (``parallel.transport.parse_address``, as ``--hosts`` does): the
    malformed cases of ``tests/test_transport.py``."""

    @pytest.mark.parametrize("text", ["bare-host", ":99", "host:port"])
    def test_malformed_address_is_a_clean_error(self, fig1_files, text):
        _data_path, query_path = fig1_files
        code, output = run_cli("query", query_path, "--connect", text)
        assert code == 1
        assert output.startswith("error: worker address")
        assert repr(text) in output


class TestSupervise:
    def test_validates_arguments(self, fig1_files):
        data_path, _ = fig1_files
        code, output = run_cli(
            "supervise", data_path, "--num-shards", "0"
        )
        assert code == 1 and "--num-shards" in output

    def test_supervises_for_duration(self, fig1_files):
        data_path, _ = fig1_files
        code, output = run_cli(
            "supervise", data_path, "--num-shards", "2",
            "--duration", "0.5",
        )
        assert code == 0
        assert "shard 0 on 127.0.0.1:" in output
        assert "shard 1 on 127.0.0.1:" in output
        assert "supervising 2 worker(s)" in output
        assert "supervision ended: 0 restart(s), 2 worker(s) live" in output


class TestServeMatch:
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--shards", "num_shards must be >= 1"),
            ("--max-concurrent", "max_concurrent must be >= 1"),
            ("--queue-depth", "queue_depth must be >= 1"),
        ],
    )
    def test_a_refused_setting_is_the_constructors_error(
        self, fig1_files, tmp_path, flag, message
    ):
        """``ShardPool`` / ``MatchService`` own the checks; the command
        prints their typed error and leaves nothing behind — no worker
        process, no journal file."""
        data_path, _ = fig1_files
        journal_dir = tmp_path / "journal"
        before = set(multiprocessing.active_children())
        code, output = run_cli(
            "serve-match", data_path, flag, "0",
            "--journal-dir", str(journal_dir),
        )
        assert (code, output) == (1, f"error: {message}\n")
        assert set(multiprocessing.active_children()) <= before
        assert not journal_dir.exists() or not list(journal_dir.iterdir())
