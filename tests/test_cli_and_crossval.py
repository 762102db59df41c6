"""Unit tests: the command-line interface and cross-validation extension."""

import dataclasses

import pytest

from repro.cli import main
from repro.core.crossval import cross_validate_traces
from repro.core.extrapolate import fit_traces
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.tracefile import TraceFile
from repro.util.errors import FitError

SCHEMA = FeatureSchema(["L1", "L2", "L3"])


def synth_trace(n_ranks, noise=0.0):
    ins = InstructionRecord(
        instr_id=0,
        kind="load",
        features=SCHEMA.vector_from_dict(
            {
                "exec_count": 1e8 / n_ranks,
                "mem_ops": 5e8 / n_ranks,
                "loads": 5e8 / n_ranks,
                "ref_bytes": 8.0,
                "hit_rate_L1": 0.9,
                "hit_rate_L2": min(0.9 + 1e-5 * n_ranks + noise, 1.0),
                "hit_rate_L3": 1.0,
            }
        ),
    )
    block = BasicBlockRecord(0, SourceLocation(function="f"), [ins])
    return TraceFile.from_blocks(
        [block], app="cv", rank=0, n_ranks=n_ranks, target="tgt", schema=SCHEMA
    )


class TestCrossValidation:
    def test_smooth_series_trusted(self):
        traces = [synth_trace(p) for p in (512, 1024, 2048, 4096)]
        report = cross_validate_traces(traces)
        # rates and structure validate; only the 1/P counts should flag
        assert report.trust_fraction(threshold=0.25) > 0.6
        flagged_features = {e.feature for e in report.flagged(0.25)}
        assert flagged_features <= {"exec_count", "mem_ops", "loads"}

    def test_extended_forms_trust_everything(self):
        from repro.core.canonical import EXTENDED_FORMS

        traces = [synth_trace(p) for p in (512, 1024, 2048, 4096)]
        report = cross_validate_traces(traces, forms=EXTENDED_FORMS)
        assert report.trust_fraction(threshold=0.05) == 1.0
        assert report.median_error() < 0.01

    def test_needs_three_traces(self):
        with pytest.raises(ValueError):
            cross_validate_traces([synth_trace(8), synth_trace(16)])

    def test_flagged_sorted_desc(self):
        traces = [synth_trace(p) for p in (512, 1024, 2048, 4096)]
        flagged = cross_validate_traces(traces).flagged(0.0)
        errors = [e.held_out_error for e in flagged]
        assert errors == sorted(errors, reverse=True)

    def test_refit_is_the_production_fit(
        self, small_jacobi, bw_machine, monkeypatch
    ):
        """The leave-last-out refit is ``fit_traces`` on the kept traces,
        bit for bit.  The batched fit's last bits follow the memory
        layout of its series matrix, and on this series a refit stacked
        row-major differed from the production fit in 46 parameters."""
        import repro.core.fitting as fitting
        from repro.pipeline.collect import collect_signature
        from tests.conftest import FAST_SETTINGS

        traces = [
            collect_signature(
                small_jacobi, p, bw_machine.hierarchy, FAST_SETTINGS
            ).slowest_trace()
            for p in (4, 8, 16, 32)
        ]
        fits = []
        batch_fit_series = fitting.batch_fit_series

        def recorded(*args):
            fits.append(batch_fit_series(*args))
            return fits[-1]

        monkeypatch.setattr(fitting, "batch_fit_series", recorded)
        cross_validate_traces(traces)
        fit_traces(traces[:-1])
        assert len(fits) == 2, "the refit bypassed fit_traces"
        refit, production = fits
        for a, b in zip(refit.params, production.params):
            assert a.tobytes() == b.tobytes()


class TestCrossValidationRefusals:
    """Cross-validation refuses every training series fitting refuses."""

    def assert_refused(self, series):
        with pytest.raises(FitError):
            fit_traces(series)
        with pytest.raises(FitError):
            cross_validate_traces(series)

    def test_instruction_kind_differs(self, jacobi_traces):
        t4, t8, t16 = jacobi_traces
        kinds = t8.kinds.copy()
        kinds[0] = "store" if kinds[0] != "store" else "load"
        self.assert_refused([t4, dataclasses.replace(t8, kinds=kinds), t16])

    def test_app_differs(self, jacobi_traces):
        t4, t8, t16 = jacobi_traces
        self.assert_refused([t4, t8, dataclasses.replace(t16, app="specfem3d")])

    def test_duplicate_core_count(self, jacobi_traces):
        t4, t8, t16 = jacobi_traces
        self.assert_refused([t4, t8, dataclasses.replace(t16, n_ranks=8)])

    def test_kept_trace_lacks_a_block(self, jacobi_traces):
        t4, t8, t16 = jacobi_traces
        first = min(t4.blocks)
        lacking = TraceFile.from_blocks(
            [b for bid, b in t4.blocks.items() if bid != first],
            app=t4.app, rank=t4.rank, n_ranks=t4.n_ranks, target=t4.target,
            schema=t4.schema,
        )
        self.assert_refused([lacking, t8, t16])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "uh3d" in out and "blue_waters_p1" in out

    def test_extrapolate_and_inspect(self, tmp_path, capsys):
        paths = []
        for p in (8, 16, 32):
            t = synth_trace(p)
            path = tmp_path / f"t{p}.npz"
            t.save_npz(path)
            paths.append(str(path))
        out_path = tmp_path / "extrap.npz"
        rc = main(
            ["extrapolate", "--trace", *paths, "--target", "128",
             "--out", str(out_path)]
        )
        assert rc == 0
        loaded = TraceFile.load_npz(out_path)
        assert loaded.extrapolated and loaded.n_ranks == 128
        assert "128" in capsys.readouterr().out

    def test_extrapolate_substituted_run_prints_no_forms(
        self, tmp_path, capsys
    ):
        # a wholly poisoned middle trace exceeds the degraded-fraction
        # ceiling, so the guard substitutes the 32-core trace whole
        paths = []
        for p in (8, 16, 32):
            t = synth_trace(p)
            if p == 16:
                t.features[:] = float("nan")
            path = tmp_path / f"t{p}.npz"
            t.save_npz(path)
            paths.append(str(path))
        out_path = tmp_path / "sub.npz"
        rc = main(
            ["extrapolate", "--trace", *paths, "--target", "128",
             "--out", str(out_path)]
        )
        assert rc == 0
        assert "-> 128 ranks ({}) ->" in capsys.readouterr().out

    def test_extrapolate_extended_forms_flag(self, tmp_path):
        paths = []
        for p in (8, 16, 32):
            t = synth_trace(p)
            path = tmp_path / f"t{p}.npz"
            t.save_npz(path)
            paths.append(str(path))
        out_path = tmp_path / "e.npz"
        rc = main(
            ["extrapolate", "--trace", *paths, "--target", "64",
             "--extended-forms", "--out", str(out_path)]
        )
        assert rc == 0
        loaded = TraceFile.load_npz(out_path)
        # inverse/power forms recover 1/P counts exactly
        mem = loaded.blocks[0].instructions[0].features[SCHEMA.index("mem_ops")]
        assert mem == pytest.approx(5e8 / 64, rel=1e-3)

    def _save_training(self, tmp_path):
        paths = []
        for p in (8, 16, 32):
            t = synth_trace(p)
            path = tmp_path / f"t{p}.npz"
            t.save_npz(path)
            paths.append(str(path))
        return paths

    def test_extrapolate_multi_target_sweep(self, tmp_path, capsys):
        paths = self._save_training(tmp_path)
        rc = main(
            ["extrapolate", "--trace", *paths, "--target", "64,128,256",
             "--out", str(tmp_path / "sweep-{target}.npz")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for target in (64, 128, 256):
            loaded = TraceFile.load_npz(tmp_path / f"sweep-{target}.npz")
            assert loaded.extrapolated and loaded.n_ranks == target
            assert f"sweep-{target}.npz" in out

    def test_extrapolate_multi_target_needs_placeholder(self, tmp_path):
        paths = self._save_training(tmp_path)
        with pytest.raises(SystemExit):
            main(
                ["extrapolate", "--trace", *paths, "--target", "64,128",
                 "--out", str(tmp_path / "one.npz")]
            )

    def test_bad_train_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--app", "jacobi", "--train", "a,b", "--target", "8"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_app_rejected(self, capsys):
        # validated by the error taxonomy, not argparse: exit code 2
        # with a one-line actionable message, no traceback
        assert main(["measure", "--app", "lammps", "--ranks", "4"]) == 2
        err = capsys.readouterr().err
        assert "unknown application 'lammps'" in err
        assert "jacobi" in err  # the message lists the known apps
