"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_multiply_args(self):
        args = build_parser().parse_args(["multiply", "-38", "87", "--n-bits", "9"])
        assert (args.w, args.x, args.n_bits) == (-38, 87, 9)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_building_the_parser_imports_no_harness(self):
        """The experiment names load only when ``repro experiment`` is parsed.

        Imported while the parser is built, ahead of ``repro serve``'s own
        modules, the harnesses left ~28 MB more of its boot memory resident.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys; from repro.cli import build_parser; build_parser(); "
            "print([m for m in sys.modules if m.startswith('repro.experiments')])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        assert out.strip() == "[]"

    def test_experiment_names_make_the_runners_calls(self, monkeypatch, capsys):
        """``repro experiment NAME --quick`` calls its harness as ``run_all(quick=True)`` does."""
        from repro.experiments import runner

        calls = []
        for name in runner.__dict__:
            module = getattr(runner, name)
            if getattr(module, "__name__", "").startswith("repro.experiments.") and hasattr(
                module, "main"
            ):
                monkeypatch.setattr(
                    module, "main",
                    lambda *a, _m=module.__name__, **k: calls.append((_m, a, k)),
                )
        runner.run_all(quick=True)
        expected = list(calls)
        assert len(expected) == len(runner.EXPERIMENTS) == 12
        calls.clear()
        for name in runner.EXPERIMENTS:
            assert main(["experiment", name, "--quick"]) == 0
        assert calls == expected
        calls.clear()
        assert main(["experiment", "all", "--quick"]) == 0
        assert calls == expected


class TestCommands:
    def test_multiply(self, capsys):
        assert main(["multiply", "-38", "87", "--n-bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "counter" in out and "latency" in out
        assert "38 cycles" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "fig5" in out

    def test_rtl(self, tmp_path, capsys):
        assert main(["rtl", "--out", str(tmp_path), "--n-bits", "6", "--lanes", "4"]) == 0
        assert (tmp_path / "sc_mac_6.v").exists()

    def test_rtl_emit_subcommand(self, tmp_path, capsys):
        assert main(["rtl", "emit", "--out", str(tmp_path), "--n-bits", "5"]) == 0
        assert (tmp_path / "sc_mac_5.v").exists()

    def test_rtl_verify(self, capsys):
        assert main(["rtl", "verify", "--n-bits", "3", "--cycles", "300"]) == 0
        out = capsys.readouterr().out
        assert "fsm_mux_3: PASS" in out
        assert "sc_mac_3: PASS" in out
        assert "bisc_mvm_3x4: PASS" in out
        assert "all 3 design runs bit-exact" in out

    def test_rtl_verify_single_design(self, capsys):
        assert main(
            ["rtl", "verify", "--n-bits", "4", "--cycles", "200", "--design", "sc_mac"]
        ) == 0
        out = capsys.readouterr().out
        assert "sc_mac_4: PASS" in out and "fsm_mux" not in out

    def test_rtl_verify_bad_n_bits_list(self, capsys):
        assert main(["rtl", "verify", "--n-bits", "3,oops"]) == 2
        assert "invalid --n-bits" in capsys.readouterr().err

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "proposed-serial" in capsys.readouterr().out


class TestServeCommand:
    def test_parser_defaults(self):
        import os

        from repro.serve import ServerConfig

        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count()
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8080, cpus)
        assert ServerConfig().workers == cpus
        assert (args.max_batch, args.max_wait_ms, args.queue_depth) == (32, 5.0, 64)
        assert args.deadline_ms is None and args.port_file is None
        assert (args.benchmark, args.engine, args.n_bits, args.batch) == (
            "digits", "proposed-sc", 8, 16
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2,0"], ["--shard-timeout-s", "1"], ["--shard-retries", "2"],
            ["--replicas", "2"], ["--no-precompile"],
        ],
    )
    def test_process_pool_flags_are_gone(self, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", *flags])
        assert "error" in capsys.readouterr().err

    def test_flags_plumb_into_server_config(self, monkeypatch):
        import repro.serve

        captured = {}
        monkeypatch.setattr(
            repro.serve, "run_server", lambda config: captured.setdefault("c", config) and 0
        )
        assert main([
            "serve", "--host", "0.0.0.0", "--port", "0", "--workers", "2",
            "--max-batch", "8", "--max-wait-ms", "2.5", "--queue-depth", "16",
            "--deadline-ms", "250", "--benchmark", "shapes", "--n-bits", "6",
            "--batch", "4", "--port-file", "/tmp/x",
        ]) == 0
        c = captured["c"]
        assert (c.host, c.port, c.workers) == ("0.0.0.0", 0, 2)
        assert (c.max_batch, c.max_wait_ms, c.queue_depth) == (8, 2.5, 16)
        assert c.default_deadline_ms == 250
        assert (c.benchmark, c.n_bits, c.shard_batch) == ("shapes", 6, 4)
        assert c.port_file == "/tmp/x"

    def test_boot_serve_and_graceful_shutdown(self, monkeypatch, tmp_path):
        """`repro serve` comes up, answers over a real socket, drains to rc 0."""
        import http.client
        import json
        import threading
        import time

        import numpy as np

        from repro.parallel import ParallelConfig
        from repro.serve import http as serve_http

        class StubEngine:
            config = ParallelConfig(workers=1)

            def add_hook(self, hook):
                pass

            def logits(self, x):
                return np.zeros((x.shape[0], 3))

            def logits_grouped(self, xs, generator=None):
                return [np.tile(np.array([0.0, 1.0, 0.0]), (x.shape[0], 1)) for x in xs]

        monkeypatch.setattr(
            serve_http, "build_engine",
            lambda config: (StubEngine(), (2, 2), {"benchmark": "stub"}),
        )
        port_file = tmp_path / "port"
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.setdefault(
                "rc", main(["serve", "--port", "0", "--port-file", str(port_file)])
            )
        )
        thread.start()
        try:
            deadline = time.time() + 10.0
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.01)
            assert port_file.exists(), "server never wrote its port file"
            port = int(port_file.read_text())

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz")
            health = json.loads(conn.getresponse().read())
            assert health["status"] == "ready"
            conn.request(
                "POST", "/v1/predict",
                body=json.dumps({"images": [[0, 0], [0, 0]]}),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["classes"] == [1]
            conn.close()
        finally:
            server = serve_http.get_active_server()
            assert server is not None
            server.request_shutdown()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["rc"] == 0


class TestInferCheck:
    def _forged(self, bit_exact, mismatch=None):
        from repro.experiments.network_performance import ThroughputResult

        return ThroughputResult(
            dataset="digits", engine="proposed-sc", n_bits=8, n_images=4,
            workers=2, batch_size=2, seconds=0.5,
            images_per_sec=8.0, bit_exact=bit_exact, mismatch=mismatch,
        )

    def test_check_failure_exits_nonzero_with_diff_summary(self, monkeypatch, capsys):
        import repro.experiments.network_performance as perf

        mismatch = {
            "count": 2, "total": 4,
            "first": [
                {"index": 1, "got": 3, "expected": 7},
                {"index": 2, "got": 0, "expected": 9},
            ],
        }
        monkeypatch.setattr(
            perf, "measure_throughput",
            lambda *a, **k: self._forged(False, mismatch),
        )
        assert main(["infer", "--check", "--workers", "2"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "2/4 predictions differ" in out
        assert "[1] got 3 expected 7" in out

    def test_check_pass_exits_zero(self, monkeypatch, capsys):
        import repro.experiments.network_performance as perf

        monkeypatch.setattr(
            perf, "measure_throughput", lambda *a, **k: self._forged(True)
        )
        assert main(["infer", "--check", "--workers", "2"]) == 0
        assert "bit-exact vs serial: OK" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """A store holding the digits-quick checkpoint, trained once per module."""
    from repro.experiments import get_trained_model
    from repro.experiments.common import DIGITS_QUICK_SPEC

    root = tmp_path_factory.mktemp("trained-store")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        get_trained_model(DIGITS_QUICK_SPEC)
    return root


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _tmp_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self.root = tmp_path

    def _seed_checkpoint(self, trained_store):
        """Copy the trained checkpoint and its sidecar into this test's store."""
        import shutil

        for name in ("digits-quick.npz", "digits-quick.npz.sha256"):
            shutil.copy2(trained_store / name, self.root / name)

    def test_ls_empty(self, capsys):
        assert main(["cache", "ls"]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_verify_flags_corrupt_seed_style_file(self, capsys):
        (self.root / "digits-quick.npz").write_bytes(b"not a zip")
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "digits-quick.npz" in out

    def test_verify_ok_store(self, capsys):
        import numpy as np

        from repro.experiments import get_store

        get_store().save_checkpoint("k", {"p0": np.zeros(2)}, spec_fingerprint="fp")
        assert main(["cache", "verify"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_clear(self, capsys):
        (self.root / "digits-quick.npz").write_bytes(b"junk")
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not (self.root / "digits-quick.npz").exists()

    def test_inspect_empty(self, capsys):
        assert main(["cache", "inspect"]) == 0
        assert "(no schedule artifacts)" in capsys.readouterr().out

    def test_compile_then_inspect(self, capsys, caplog, trained_store):
        import logging

        self._seed_checkpoint(trained_store)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            assert main(
                ["cache", "compile", "--benchmark", "digits", "--n-bits", "6"]
            ) == 0
        assert "event=retrain" not in caplog.text
        out = capsys.readouterr().out
        assert "compiled sched-digits-quick-proposed-sc-n6" in out
        assert (self.root / "sched-digits-quick-proposed-sc-n6.npz").exists()
        assert main(["cache", "inspect"]) == 0
        out = capsys.readouterr().out
        assert "sched-digits-quick-proposed-sc-n6: 5 entries (" in out
        assert "layer-coeff=2" in out and "digits-quick:" not in out

    def test_compile_generator_is_the_artifact_the_server_boots_from(
        self, capsys, caplog, trained_store
    ):
        """``--generator mip`` compiles the ``gmip`` artifact ``repro serve`` loads as it is.

        The serving boot finds it covering every table it needs: no
        ``stale`` event, no recompile over it, and no table built while
        a group is served.
        """
        import logging

        import numpy as np

        from repro.parallel.cache import detach_compiled, get_worker_cache, reset_worker_cache
        from repro.serve import ServerConfig, build_engine

        key = "sched-digits-quick-lfsr-sc-n8-gmip"
        self._seed_checkpoint(trained_store)
        with caplog.at_level(logging.INFO, logger="repro.artifacts"):
            assert main(["cache", "compile", "--engine", "lfsr-sc", "--generator", "mip"]) == 0
        assert "event=retrain" not in caplog.text
        caplog.clear()
        assert f"compiled {key}" in capsys.readouterr().out
        artifact = (self.root / f"{key}.npz").read_bytes()
        detach_compiled()
        reset_worker_cache()
        try:
            with caplog.at_level(logging.INFO, logger="repro.artifacts"):
                engine, shape, meta = build_engine(
                    ServerConfig(engine="lfsr-sc", generator="mip", workers=0)
                )
            assert meta["schedule_artifact"]["key"] == key
            assert f"event=hit key={key}" in caplog.text
            assert "event=stale" not in caplog.text
            assert "event=retrain" not in caplog.text
            engine.logits_grouped([np.random.default_rng(0).uniform(0.0, 1.0, (2, *shape))])
            assert get_worker_cache().stats()["rebuilds"] == 0
        finally:
            detach_compiled()
            reset_worker_cache()
        assert (self.root / f"{key}.npz").read_bytes() == artifact

    def test_compile_rejects_an_unknown_generator(self, capsys):
        assert main(["cache", "compile", "--generator", "sobol"]) == 2
        assert "unknown generator 'sobol'" in capsys.readouterr().err
        assert not list(self.root.glob("*.npz"))

    def test_inspect_flags_corrupt_artifact(self, capsys):
        (self.root / "sched-bogus.npz").write_bytes(b"not a schedule artifact")
        assert main(["cache", "inspect"]) == 1
        assert "sched-bogus: missing or quarantined" in capsys.readouterr().out
        assert (self.root / "sched-bogus.npz.corrupt").exists()

    def test_inspect_reads_mip_tables_with_their_own_format(self, capsys):
        """MIP SNG tables (an ``.npz`` of ``w`` and ``x``) sit next to schedule
        artifacts, and one loader reads both."""
        from repro.experiments import get_store
        from repro.nn import attach_engines, build_mnist_net
        from repro.nn.calibration import LayerRanges
        from repro.parallel import ensure_compiled
        from repro.sc import mip

        store = get_store()
        net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
        attach_engines(net, "proposed-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=5)
        ensure_compiled(net, store, "sched-small")
        mip.mip_tables(5, store)
        assert main(["cache", "inspect"]) == 0
        out = capsys.readouterr().out
        assert "sched-small: 5 entries (bit-table=1, layer-coeff=2, layer-const=2)" in out
        assert f"{mip.mip_table_key(5)}: MIP SNG tables, n_bits=5" in out
        assert main(["cache", "inspect", "--key", mip.mip_table_key(5)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{mip.mip_table_key(5)}: MIP SNG tables, n_bits=5"
        ]

        path = store.checkpoint_path(mip.mip_table_key(5))
        path.write_bytes(path.read_bytes()[:-20])  # torn
        assert main(["cache", "inspect"]) == 1
        assert f"{mip.mip_table_key(5)}: missing or quarantined" in capsys.readouterr().out
