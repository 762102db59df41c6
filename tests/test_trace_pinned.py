"""Pinned trace bytes, and the rules of a trace's block views.

The SHA-256s were recorded from ``save_npz`` when a trace still kept one
record object per instruction; the columnar ``TraceFile`` must write the
same bytes for the same collection, extrapolation and fitted model.
"""

import copy
import hashlib
import io
import pickle

import numpy as np
import pytest

from repro.apps.registry import get_app
from repro.core.extrapolate import extrapolate_trace
from repro.pipeline.collect import CollectionSettings
from repro.pipeline.experiment import Table1Config, collect_training_traces

#: (app, training counts) -> {core count: SHA-256 of the collected npz}
COLLECTED = {
    ("jacobi", (4, 8, 16)): {
        4: "28edc398a74482ad409b21b0e6cd02610dcad748391f0c4f8b7211e94b1b3f17",
        8: "9dcb187b2813605108a677c4fb0f313132377569ac43b8d402ed2daddefb51c4",
        16: "29ff27277b88669dff002d36b9e71dee5bbe2c27929f5172245c6315e83fd306",
    },
    ("specfem3d", (96, 384, 1536)): {
        96: "8bb60c3d20ae11e2189a091b67524381bad06381c586c076eac8ab99b9d3f784",
        384: "7970e7b6e95a158e454d129c6fc661a7bb31fed2eb358ab21bd0db57ff42f2f3",
        1536: "4de4911c67781a3db1a342ebd34543c4235d5df02565aa485248159e92e613ae",
    },
}

#: (app, training counts, target) -> SHA-256 of the extrapolated npz
EXTRAPOLATED = {
    ("jacobi", (4, 8), 16):
        "113a54ae055f4bab2ee791434b2114bd3e73b11707b371e9cccb5ccf92686135",
    ("specfem3d", (96, 384, 1536), 6144):
        "579a31f1b576a1a884d28f80dd3716231d18c594cc696df11e6a01ccb1cadfa8",
}

#: a jacobi 4,8,16 registry model's ``template.npz`` and ``fit.npz``
MODEL_TEMPLATE = "28edc398a74482ad409b21b0e6cd02610dcad748391f0c4f8b7211e94b1b3f17"
MODEL_FIT = "25ab42c01a0c9dd7177a4cc2ceb95cc5549eb470387ec32a28407b0d29bab1c7"

_CONFIG = Table1Config(collection=CollectionSettings(workers=0))


def _sha(write) -> str:
    buf = io.BytesIO()
    write(buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


@pytest.fixture(scope="module")
def collected():
    return {
        key: collect_training_traces(get_app(key[0]), key[1], _CONFIG)
        for key in COLLECTED
    }


@pytest.mark.parametrize("key", sorted(COLLECTED), ids=lambda k: k[0])
def test_collected_npz_bytes_pinned(collected, key):
    digests = {t.n_ranks: _sha(t.save_npz) for t in collected[key]}
    assert digests == COLLECTED[key]


@pytest.mark.parametrize("key", sorted(EXTRAPOLATED), ids=lambda k: k[0])
def test_extrapolated_npz_bytes_pinned(collected, key):
    app, train, target = key
    series = next(v for (a, _), v in collected.items() if a == app)
    traces = [t for t in series if t.n_ranks in train]
    trace = extrapolate_trace(traces, target).trace
    assert _sha(trace.save_npz) == EXTRAPOLATED[key]


def test_model_npz_bytes_pinned(bw_machine, monkeypatch):
    from repro.serve import registry
    from repro.serve.registry import ModelSpec, fit_model

    # the profile is no part of the pinned bytes: skip the full probe
    monkeypatch.setattr(registry, "get_machine", lambda name, root=None: bw_machine)
    model = fit_model(
        ModelSpec(app="jacobi", machine="blue_waters_p1",
                  train_counts=(4, 8, 16), code_version="pin"),
        config=_CONFIG,
    )
    assert _sha(model.template.save_npz) == MODEL_TEMPLATE
    assert _sha(lambda f: model.report.save_npz(f, forms=model.spec.forms)) \
        == MODEL_FIT


def _views_equal_matrix(trace) -> None:
    rows = [
        ins.features
        for block in trace.blocks.values()
        for ins in block.instructions
    ]
    np.testing.assert_array_equal(np.stack(rows), trace.features)


class TestViews:
    @pytest.fixture
    def trace(self, collected):
        return copy.deepcopy(collected["jacobi", (4, 8, 16)][0])

    def test_writing_through_a_view_raises(self, trace):
        ins = trace.blocks[0].instructions[0]
        with pytest.raises(ValueError):
            ins.features[0] = 1.0
        with pytest.raises(AttributeError):
            ins.features = np.zeros(trace.schema.n_features)
        with pytest.raises(TypeError):
            del trace.blocks[0]
        assert isinstance(ins.instr_id, int) and isinstance(ins.kind, str)
        assert isinstance(trace.blocks[0].block_id, int)

    def test_matrix_write_shows_in_a_fresh_view(self, trace):
        bid, k = trace.pair_keys()[-1]
        j = trace.schema.index("mem_ops")
        trace.features[trace.row(bid, k), j] = 1234.5
        assert trace.blocks[bid].instructions[k].features[j] == 1234.5
        _views_equal_matrix(trace)

    @pytest.mark.parametrize("round_trip", [
        copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)),
    ], ids=["deepcopy", "pickle"])
    def test_views_follow_the_matrix_after_a_round_trip(self, trace, round_trip):
        trace.blocks  # a view built before the copy is not carried over
        other = round_trip(trace)
        other.features[0, 0] = -1.0
        _views_equal_matrix(other)
        _views_equal_matrix(trace)
        assert trace.features[0, 0] != -1.0
