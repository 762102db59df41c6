"""CLI input validation: bad input fails fast with exit code 2.

The contract under test — taxonomy errors (``UsageError`` and friends)
surface as one actionable ``repro: error:`` line on stderr, never a
traceback; malformed argument *syntax* stays argparse's job and exits 2
via ``SystemExit``.  Collection never starts on invalid input.
"""

import os

import pytest

from repro.cli import main


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestUnknownNames:
    def test_unknown_app(self, capsys):
        rc, _, err = _run(capsys, ["measure", "--app", "miniFE", "--ranks", "4"])
        assert rc == 2
        assert "unknown application 'miniFE'" in err
        assert "jacobi" in err  # actionable: lists what IS known
        assert "Traceback" not in err

    def test_unknown_machine(self, capsys):
        rc, _, err = _run(
            capsys,
            ["measure", "--app", "jacobi", "--ranks", "4",
             "--machine", "summit"],
        )
        assert rc == 2
        assert "unknown machine 'summit'" in err
        assert "blue_waters_p1" in err
        assert "Traceback" not in err

    def test_unknown_app_checked_before_collection(self, tmp_path, capsys):
        # collect validates every input up front: nothing is written
        out = tmp_path / "sig"
        rc, _, err = _run(
            capsys,
            ["collect", "--app", "nope", "--ranks", "4", "--out", str(out)],
        )
        assert rc == 2 and "unknown application" in err
        assert not out.exists()


class TestMalformedCounts:
    def test_non_numeric_target(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["extrapolate", "--trace", "t.npz", "--target", "8x",
                  "--out", str(tmp_path / "o.npz")])
        assert excinfo.value.code == 2

    def test_non_positive_target(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["extrapolate", "--trace", "t.npz", "--target", "64,-8",
                  "--out", str(tmp_path / "o.npz")])
        assert excinfo.value.code == 2

    def test_empty_train_list(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--app", "jacobi", "--train", ",",
                  "--target", "64"])
        assert excinfo.value.code == 2


class TestWritability:
    @pytest.fixture()
    def denied_dir(self, tmp_path, monkeypatch):
        """An existing directory for which os.access denies W_OK.

        chmod-based setups are useless here: the suite may run as root,
        for whom access(2) grants everything — so the denial is
        simulated at the exact call the CLI makes.
        """
        denied = tmp_path / "denied"
        denied.mkdir()
        real_access = os.access

        def fake_access(path, mode, **kwargs):
            if mode & os.W_OK and str(path).startswith(str(denied)):
                return False
            return real_access(path, mode, **kwargs)

        monkeypatch.setattr(os, "access", fake_access)
        return denied

    def test_unwritable_out_dir(self, denied_dir, capsys):
        out = denied_dir / "sig"
        rc, _, err = _run(
            capsys,
            ["collect", "--app", "jacobi", "--ranks", "4",
             "--out", str(out)],
        )
        assert rc == 2
        assert "--out" in err and "not writable" in err
        assert "Traceback" not in err
        assert not out.exists()  # validation really is up-front

    def test_unwritable_cache_dir(self, tmp_path, denied_dir, capsys):
        rc, _, err = _run(
            capsys,
            ["collect", "--app", "jacobi", "--ranks", "4",
             "--out", str(tmp_path / "sig"),
             "--cache-dir", str(denied_dir / "cache")],
        )
        assert rc == 2
        assert "--cache-dir" in err and "not writable" in err

    def test_out_file_is_a_directory(self, tmp_path, capsys):
        rc, _, err = _run(
            capsys,
            ["extrapolate", "--trace", "t.npz", "--target", "64",
             "--out", str(tmp_path)],
        )
        assert rc == 2
        assert "is a directory, not a file" in err

    def test_missing_trace_file(self, tmp_path, capsys):
        rc, _, err = _run(
            capsys,
            ["extrapolate", "--trace", str(tmp_path / "ghost.npz"),
             "--target", "64", "--out", str(tmp_path / "o.npz")],
        )
        assert rc == 2
        assert "does not exist" in err


class TestGuardFlags:
    def test_negative_trust_threshold_exits_2(self, tmp_path, capsys):
        # ValidationError (a ValueError, not a ReproError) must route
        # through the same exit-2 one-liner path as the taxonomy errors
        rc, _, err = _run(
            capsys,
            ["extrapolate", "--trace", "t.npz", "--target", "64",
             "--out", str(tmp_path / "o.npz"), "--trust-threshold", "-1"],
        )
        assert rc == 2
        assert "repro: error:" in err
        assert "trust_threshold must be positive" in err
        assert "Traceback" not in err

    def test_unknown_guard_policy_is_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["extrapolate", "--trace", "t.npz", "--target", "64",
                  "--out", str(tmp_path / "o.npz"), "--guard", "panic"])
        assert excinfo.value.code == 2

    def test_unwritable_degradation_out(self, tmp_path, capsys):
        target = tmp_path / "isafile"
        target.write_text("x")
        rc, _, err = _run(
            capsys,
            ["table1", "--app", "jacobi", "--train", "4,8", "--target", "16",
             "--degradation-out", str(target / "d.json")],
        )
        assert rc == 2
        assert "--degradation-out" in err and "not writable" in err


class TestResilienceFlags:
    def test_non_positive_task_timeout(self, tmp_path, capsys):
        rc, _, err = _run(
            capsys,
            ["collect", "--app", "jacobi", "--ranks", "4",
             "--out", str(tmp_path / "sig"), "--task-timeout", "0"],
        )
        assert rc == 2
        assert "--task-timeout must be positive" in err

    def test_negative_max_retries(self, tmp_path, capsys):
        rc, _, err = _run(
            capsys,
            ["collect", "--app", "jacobi", "--ranks", "4",
             "--out", str(tmp_path / "sig"), "--max-retries", "-1"],
        )
        assert rc == 2
        assert "--max-retries must be >= 0" in err


class TestOutOfRangeNumbers:
    """Every numeric flag carries its bound in its declaration, and one
    checker enforces the bounds after parsing, before any command starts."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["collect", "--app", "jacobi", "--ranks", "0",
              "--out", "{tmp}/sig", "--cache-dir", "{tmp}/cache"], "--ranks"),
            (["measure", "--app", "jacobi", "--ranks", "-4"], "--ranks"),
            (["predict", "--app", "jacobi", "--ranks", "0",
              "--trace", "{tmp}/t.npz"], "--ranks"),
            (["table1", "--app", "jacobi", "--train", "4,8", "--target", "0",
              "--cache-dir", "{tmp}/cache"], "--target"),
            (["table1", "--app", "jacobi", "--train", "4,8", "--target", "16",
              "--workers", "-1", "--cache-dir", "{tmp}/cache"], "--workers"),
            (["dag", "run", "--app", "jacobi", "--train", "4,8",
              "--targets", "16", "--workers", "-2",
              "--dag-root", "{tmp}/root"], "--workers"),
            (["serve", "--app", "jacobi", "--train", "4,8,16",
              "--workers", "-1", "--registry", "{tmp}/reg",
              "--cache-dir", "{tmp}/cache"], "--workers"),
        ],
        ids=["collect-ranks", "measure-ranks", "predict-ranks",
             "table1-target", "table1-workers", "dag-run-workers",
             "serve-workers"],
    )
    def test_exits_2_before_any_work(self, tmp_path, capsys, argv, flag):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        rc, out, err = _run(
            capsys, argv + ["--manifest-out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert err.startswith("repro: error:") and err.count("\n") == 1
        assert flag in err
        assert "Traceback" not in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []  # nothing collected or written


class TestTable1Hook:
    def test_rebound_run_table1_sees_the_run(self, monkeypatch, capsys):
        """``perfbench/launch.py`` rebinds ``repro.cli.run_table1`` to keep
        the Table I result at full precision; the command must look the
        name up on the package at call time."""
        import repro.cli

        original = repro.cli.run_table1
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "run_table1", recording)
        rc, out, _ = _run(
            capsys,
            ["table1", "--app", "jacobi", "--train", "4,8", "--target", "16",
             "--workers", "0", "--no-cache"],
        )
        assert rc == 0 and "measured runtime:" in out
        assert len(calls) == 1
