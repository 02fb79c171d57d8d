"""The service CLI surface: serve/submit/status, --version, exit codes.

``repro submit`` against a live service must print **byte-identical**
output to the same ``repro run`` invocation — that is the subsystem's
headline guarantee, enforced here end to end.
"""

from __future__ import annotations

import socket

import pytest

import repro
from repro.cli import main

#: ``SMALL`` of tests/service/conftest.py as workload flags.
WORKLOAD = [
    "--engine", "Hygra", "--algorithm", "BFS", "--dataset", "FS",
    "--cores", "4", "--llc-kb", "2", "--pr-iterations", "1",
]


def free_port() -> int:
    """A port with nothing listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"repro {repro.__version__}\n"

    def test_fallback_version_matches_pyproject(self):
        """`repro.__version__` falls back to a pinned constant when the
        package is run uninstalled (PYTHONPATH=src); that constant must
        track pyproject.toml."""
        import pathlib
        import tomllib

        pyproject = pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert repro._FALLBACK_VERSION == declared


class TestSubmitByteIdentity:
    def test_submit_output_equals_run_output(
        self, make_service, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        _, client = make_service()

        assert main(["run", *WORKLOAD]) == 0
        run_output = capsys.readouterr().out

        assert main([
            "submit", *WORKLOAD, "--port", str(client.port),
            "--wait-timeout", "120",
        ]) == 0
        submit_output = capsys.readouterr().out

        assert submit_output == run_output  # byte-identical, not just close


class TestExitCodes:
    def test_unknown_job_exits_66(self, make_service, capsys):
        _, client = make_service()
        rc = main(["status", "job-404-cafef00d", "--port", str(client.port)])
        assert rc == 66
        assert "JobNotFoundError" in capsys.readouterr().err

    def test_unreachable_service_exits_70(self, capsys):
        rc = main(["status", "--port", str(free_port())])
        assert rc == 70
        assert "ServiceError" in capsys.readouterr().err

    def test_overloaded_service_exits_75(self, make_service, capsys):
        _, client = make_service(max_depth=0)
        rc = main(["submit", *WORKLOAD, "--port", str(client.port)])
        assert rc == 75
        assert "ServiceOverloadedError" in capsys.readouterr().err


class TestStatusOverview:
    def test_overview_renders_health_and_stats(self, make_service, capsys):
        _, client = make_service()
        assert main(["status", "--port", str(client.port)]) == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert "queue_depth" in out or "depth" in out

    def test_submit_no_wait_then_status(self, make_service, capsys):
        _, client = make_service()
        assert main([
            "submit", *WORKLOAD, "--port", str(client.port), "--no-wait",
        ]) == 0
        out = capsys.readouterr().out
        job_id = next(
            token for token in out.split() if token.startswith("job-")
        )
        client.wait(job_id, timeout=120)
        assert main(["status", job_id, "--port", str(client.port)]) == 0
        assert job_id in capsys.readouterr().out
