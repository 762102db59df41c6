"""Unit tests: domain decomposition and the application proxies."""

import hashlib
import json

import numpy as np
import pytest

from repro.apps.base import ScalingMode
from repro.apps.decomposition import CartesianDecomposition, factor3
from repro.apps.jacobi import JacobiParams, JacobiProxy
from repro.apps.registry import get_app
from repro.apps.specfem3d import SpecFEM3DProxy, SpecFEMParams
from repro.apps.uh3d import UH3DParams, UH3DProxy
from repro.simmpi.profiler import profile_job
from repro.simmpi.runtime import verify_job


class TestFactor3:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1, (1, 1, 1)),
            (8, (2, 2, 2)),
            (96, (6, 4, 4)),
            (384, (8, 8, 6)),
            (1536, (16, 12, 8)),
            (6144, (24, 16, 16)),
            (1024, (16, 8, 8)),
            (8192, (32, 16, 16)),
            (7, (7, 1, 1)),
        ],
    )
    def test_known_factorizations(self, p, expected):
        assert factor3(p) == expected

    @pytest.mark.parametrize("p", [2, 12, 100, 2048, 4096])
    def test_product_is_p(self, p):
        dims = factor3(p)
        assert dims[0] * dims[1] * dims[2] == p
        assert dims[0] >= dims[1] >= dims[2]


class TestDecomposition:
    def test_cells_partition_exactly(self):
        dec = CartesianDecomposition((48, 48, 48), 96)
        total = sum(dec.geometry(r).n_cells for r in range(96))
        assert total == 48**3

    def test_uneven_split_distributes_extras(self):
        dec = CartesianDecomposition((10, 1, 1), 3)
        sizes = sorted(dec.geometry(r).local_cells[0] for r in range(3))
        assert sizes == [3, 3, 4]

    def test_neighbors_symmetric(self):
        dec = CartesianDecomposition((16, 16, 16), 8)
        for r in range(8):
            geom = dec.geometry(r)
            for (dim, direction), nbr in geom.neighbors.items():
                back = dec.geometry(nbr).neighbors[(dim, -direction)]
                assert back == r

    def test_boundary_faces_nonperiodic(self):
        dec = CartesianDecomposition((16, 16, 16), 8)  # 2x2x2 grid
        assert all(dec.geometry(r).boundary_faces == 3 for r in range(8))

    def test_periodic_has_no_boundary(self):
        dec = CartesianDecomposition(
            (16, 16, 16), 8, periodic=(True, True, True)
        )
        for r in range(8):
            geom = dec.geometry(r)
            assert geom.boundary_faces == 0
            assert len(geom.neighbors) == 6

    def test_halo_and_boundary_cells(self):
        dec = CartesianDecomposition((8, 8, 8), 2)  # split x into 2
        geom = dec.geometry(0)
        assert geom.local_cells == (4, 8, 8)
        assert geom.halo_cells() == 64  # one x-face
        assert geom.boundary_cells() == 64 + 2 * 32 + 2 * 32  # 5 outer faces

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((2, 2, 2), 64)

    def test_equivalence_classes_partition(self):
        dec = CartesianDecomposition((48, 48, 48), 96)
        classes = dec.equivalence_classes()
        all_ranks = sorted(r for cls in classes for r in cls)
        assert all_ranks == list(range(96))

    @pytest.mark.parametrize("cells,n_ranks,periodic", [
        ((10, 9, 7), 12, False),
        ((192, 192, 192), 7, False),
        ((16, 16, 16), 8, True),
        ((8, 8, 8), 2, True),
        ((9, 8, 7), 18, True),
    ])
    def test_table_rows_match_rank_geometry(self, cells, n_ranks, periodic):
        dec = CartesianDecomposition(cells, n_ranks, periodic=(periodic,) * 3)
        table = dec.table
        for r in range(n_ranks):
            geom = dec.geometry(r)
            assert geom.coords == dec.coords_of(r) == tuple(table.coords[r].tolist())
            assert table.face_cells[r].tolist() == [geom.face_cells(d) for d in range(3)]
            assert table.halo_cells[r] == geom.halo_cells()
            assert table.boundary_cells[r] == geom.boundary_cells()
            assert table.n_cells[r] == geom.n_cells
            assert all(type(v) is int for v in geom.local_cells + tuple(geom.neighbors.values()))
        with pytest.raises(ValueError, match="out of range"):
            dec.geometry(n_ranks)

    def test_rank_coords_round_trip(self):
        dec = CartesianDecomposition((48, 48, 48), 96)
        for r in (0, 13, 95):
            assert dec.rank_of(dec.coords_of(r)) == r


@pytest.mark.parametrize(
    "app_factory,counts",
    [
        (lambda: JacobiProxy(JacobiParams(global_cells=(32, 32, 32), n_steps=2)), (4, 8)),
        (
            lambda: SpecFEM3DProxy(
                SpecFEMParams(global_elements=(12, 12, 12), n_steps=2)
            ),
            (6, 24),
        ),
        (
            lambda: UH3DProxy(
                UH3DParams(global_cells=(32, 32, 32), particles_per_cell=2.0, n_steps=2)
            ),
            (8, 16),
        ),
    ],
    ids=["jacobi", "specfem3d", "uh3d"],
)
class TestProxyContracts:
    def test_jobs_verify(self, app_factory, counts):
        app = app_factory()
        for p in counts:
            verify_job(app.build_job(p))

    def test_programs_consistent_with_scripts(self, app_factory, counts):
        """Every compute event references a block that exists, and total
        script iterations equal the program's exec_count."""
        app = app_factory()
        for p in counts:
            job = app.build_job(p)
            for rank in (0, p - 1):
                program = app.rank_program(rank, p)
                totals = {}
                for ev in job.script(rank).compute_events():
                    program.block(ev.block_id)  # raises if missing
                    totals[ev.block_id] = totals.get(ev.block_id, 0) + ev.iterations
                for bid, total in totals.items():
                    assert program.block(bid).exec_count == total

    def test_equivalence_classes_partition_and_match(self, app_factory, counts):
        app = app_factory()
        for p in counts:
            classes = app.equivalence_classes(p)
            all_ranks = sorted(r for cls in classes for r in cls)
            assert all_ranks == list(range(p))

    def test_block_ids_stable_across_core_counts(self, app_factory, counts):
        app = app_factory()
        ids = [
            sorted(b.block_id for b in app.rank_program(0, p).blocks)
            for p in counts
        ]
        assert ids[0] == ids[1]

    def test_strong_scaling_shrinks_dominant_work(self, app_factory, counts):
        app = app_factory()
        small = app.rank_program(0, counts[0])
        large = app.rank_program(0, counts[1])
        assert large.total_mem_accesses < small.total_mem_accesses

    def test_determinism(self, app_factory, counts):
        a1, a2 = app_factory(), app_factory()
        p = counts[0]
        j1, j2 = a1.build_job(p), a2.build_job(p)
        for s1, s2 in zip(j1.scripts, j2.scripts):
            assert s1.events == s2.events


#: SHA-256 of ``job.rows``, ``job.offsets`` and the JSON of
#: ``equivalence_classes(n)`` of each registered app at one core count
#: and scaling mode, recorded when every rank's script was still run one
#: ``SimComm`` call at a time.  They cover uneven splits (jacobi 7,
#: specfem3d 10), periodic grids whose two slots in a dimension name the
#: same peer (uh3d 8) or no peer at all (uh3d 2), weak scaling, and the
#: Table I targets.
JOB_DIGESTS = {
    ("jacobi", 7, "strong"): (
        "c46bca41250893aa95f9a8654a051147321e7fd231a538fa3294fe81ee70da39",
        "87c11461ae6fa6693fb1d2389c9c69e54cc408e062353d2cd0b695eef3f73ba3",
        "e98608848491efbfbd6aa230d97fb350fae07ce7ac427a784e2842bc9a1a5fd4",
    ),
    ("jacobi", 8, "strong"): (
        "84b6b2c4f42d6ee2df3205d2dc4e7c46d5f29fa47575cfe766cfe09dcdd9ee7c",
        "a8d9b4bab3d7d29e88728bbcdb9ebe1d6a2644cfa7af7c6a37f4da9cae20f98b",
        "776742eea07b6ffab0b478b959ae25b9be1546d94f3a1fa09111dca4d913daf6",
    ),
    ("jacobi", 96, "strong"): (
        "6d782a0890c53a642a66d2319bd73bfd1abe2d7354bc685a9c1597793a5037c1",
        "d85bd13657654b8d2abeca14bf49ed5f2ebd20169b32f49744b34c9ceccf6b5b",
        "1e4606227f4550208d167f1c37e9a48814215f2856158c89dbdcf6d5d6ef6d6f",
    ),
    ("jacobi", 27, "weak"): (
        "df59a6e2a4b05df5d842bb20577e78dceb89456cf866428576225ca416b82313",
        "fd387823ae0b5c1236d16633956531c63b41c88a652245dc49c503dd58bffc19",
        "469d4a23b7ae38e63ad78570578683e0ee00dcd37aae703c19bca1e58ee60d17",
    ),
    ("specfem3d", 10, "strong"): (
        "7bb9e92ff63a6134144039d8fef5cc7393b17d8e19351243faf067bae7e33b74",
        "8e26638b81f728a8c79e7555e611c0f5be28eb2add714a5c3f6e431fa10c90e6",
        "f9cb37aa79197da11be080c171cb8f5247bacda8e38f21baece4fff500870cdf",
    ),
    ("specfem3d", 96, "strong"): (
        "c89ecdff8ca8f48aa61988eba75006b8b350d4026eea894945a9bcbf8442e119",
        "c274b5c350cbd19eaa4b03bbdd9412e9b75973e08deaefdb65195a0db21a5d8e",
        "1e4606227f4550208d167f1c37e9a48814215f2856158c89dbdcf6d5d6ef6d6f",
    ),
    ("specfem3d", 384, "strong"): (
        "f23ac95a9379ba3667662dab6bb4440871e7dff6c8c6dc5e367cffd05f2f0918",
        "2d987fd4dc1a9c868d9240bcfd6b0bca8f55408662d072667d2579072dd9d689",
        "eb777df8635b2109906fbf9fabedd462fb5a348c56c7dce69764c1186ecf9cee",
    ),
    ("specfem3d", 6144, "strong"): (
        "33a1945fec3f5a1a25ed74f454bbee3daa926148b19931d667081404cf21407d",
        "81a35820eee2a29c6fd3f4f67dd1092fcedaa3e3a8815f279f8657283f356be0",
        "39dbbbf9595ea4380bbf27e12c7686d39168e09e6fb16bf677d29423053c1586",
    ),
    ("specfem3d", 12, "weak"): (
        "f28262cdc6eea1210251fb59ac60552702fce8a66dbdff38d77929b2b0b64efc",
        "69d8e042a7466135c57a90a83b75104130d16a000cf7ad42c66242bf5b25fcd4",
        "2f23e924bfd58e44e15a4754163d6f232b007316a8fc65175145b9414eaf5186",
    ),
    ("uh3d", 2, "strong"): (
        "47bdd852be761bf468d667a31361da66c1c66cd244a4bfe740b7525d3bbb5cab",
        "497db65a21051be267fe5d04720fb4e4e58ef414e368707717548b7c7278881b",
        "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae",
    ),
    ("uh3d", 8, "strong"): (
        "c386c5c50b35d5ffc0036c47a51e2bf989de450a707293697f67a2909cc40d5b",
        "e172342f284656999a462ac87c23e29eecd36f2d0364e5ae73599119cc2c0c0f",
        "68c18b5c5e48cd3708709c57fe945633de616c0e1a2da232eaa6f1de5e896faa",
    ),
    ("uh3d", 64, "strong"): (
        "e72533c8ca54805e847e35ff01fb04ad6199298ec7b653a603fa530afb59f2a5",
        "4078971ede6ebfb73c01f39c2b1b2361ae5c61c2da3cd8d9ae3b65790cea4504",
        "13d59b44ca94b4308b0e0228297a470d20072869069b8bf18a8152f6151411d6",
    ),
    ("uh3d", 256, "strong"): (
        "fc49a92f47f7f009a351535aeb493f9d8ec1825fa769dc731783acc44bf47890",
        "ba214e9b00e7efc27fabf1f39380b0eafe462d3dcb69b5ca0c158d1fb409846d",
        "6fb1852c036012f24b07b8e994c01c9dccf7abfcaeb600af7638b42855170e22",
    ),
    ("uh3d", 8192, "strong"): (
        "986ed0798e8cd57ebcd61f829238be1bb04377ed94b13163e5092a5d25308002",
        "5551d58325377d2e1030e11318648072a5bebc10490e4198eb57a0131400a700",
        "0335b4edb4b176f907538ab17068f082f186798025d2c86c07fde18d6b1abaa6",
    ),
    ("uh3d", 18, "weak"): (
        "8ca1da9113c0155604bf9015046e4fd4273c1cd7dfe8c5f23b5c7b1d8841ca43",
        "cb6e1f7c1339bb007812c5ef97d04600eceaca1120c246abd6ddf744f27c6e9e",
        "52e866d80d748314a49a26c07c89ae785402e2bb46202949e2da4dc1811b2cf9",
    ),
}


def _digest_id(key):
    app, n_ranks, scaling = key
    return f"{app}-{n_ranks}" + ("" if scaling == "strong" else f"-{scaling}")


def _app(name, scaling):
    return get_app(name, scaling=ScalingMode(scaling))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "app,n_ranks,scaling", sorted(JOB_DIGESTS), ids=map(_digest_id, sorted(JOB_DIGESTS))
)
def test_job_rows_match_recorded_digests(app, n_ranks, scaling):
    job = _app(app, scaling).build_job(n_ranks)
    digests = (_sha256(job.rows.tobytes()), _sha256(job.offsets.tobytes()))
    assert digests == JOB_DIGESTS[app, n_ranks, scaling][:2]


@pytest.mark.parametrize(
    "app,n_ranks,scaling", sorted(JOB_DIGESTS), ids=map(_digest_id, sorted(JOB_DIGESTS))
)
def test_equivalence_classes_match_recorded_digests(app, n_ranks, scaling):
    classes = _app(app, scaling).equivalence_classes(n_ranks)
    assert _sha256(json.dumps(classes).encode()) == JOB_DIGESTS[app, n_ranks, scaling][2]


class TestJacobiSpecifics:
    def test_weak_scaling_grows_global(self):
        app = JacobiProxy(
            JacobiParams(weak_cells_per_rank=(8, 8, 8)), scaling=ScalingMode.WEAK
        )
        d8 = app.decomposition(8)
        assert d8.global_cells == (16, 16, 16)
        # per-rank cells constant under weak scaling
        assert d8.geometry(0).n_cells == 8**3
        d64 = app.decomposition(64)
        assert d64.geometry(0).n_cells == 8**3


class TestUH3DSpecifics:
    @pytest.fixture(scope="class")
    def app(self):
        return UH3DProxy(
            UH3DParams(global_cells=(32, 32, 32), particles_per_cell=2.0, n_steps=2)
        )

    def test_density_peak_location_stable(self, app):
        """The busiest region must stay busiest across core counts."""
        for p in (8, 64):
            job = app.build_job(p)
            prof = profile_job(job, app.program_factory(p))
            slowest = prof.slowest_rank()
            dec = app.decomposition(p)
            coords = dec.coords_of(slowest)
            pos_x = (coords[0] + 0.5) / dec.grid[0]
            assert abs(pos_x - 0.25) < 0.3  # near the dayside peak

    def test_density_levels_bounded(self, app):
        levels = set(app.density_levels(64).tolist())
        assert levels <= set(range(app.params.density_levels))
        assert len(levels) > 1  # the field actually varies

    def test_load_imbalance_present(self, app):
        job = app.build_job(64)
        prof = profile_job(job, app.program_factory(64))
        assert prof.load_imbalance() > 1.1


class TestSpecFEMSpecifics:
    def test_corner_rank_is_slowest(self):
        app = SpecFEM3DProxy(SpecFEMParams(global_elements=(12, 12, 12), n_steps=2))
        job = app.build_job(24)
        prof = profile_job(job, app.program_factory(24))
        slowest = prof.slowest_rank()
        geom = app.decomposition(24).geometry(slowest)
        assert geom.boundary_faces == 3  # a corner rank

    def test_norm_stages_grow_with_log_cores(self):
        app = SpecFEM3DProxy(SpecFEMParams(global_elements=(12, 12, 12)))
        from repro.apps.specfem3d import BLOCK_NORM_STAGES

        e6 = app.rank_program(0, 6).block(BLOCK_NORM_STAGES).exec_count
        e24 = app.rank_program(0, 24).block(BLOCK_NORM_STAGES).exec_count
        assert e24 > e6  # log2(24) > log2(6)


class TestRegistry:
    def test_lookup(self):
        assert get_app("jacobi").name == "jacobi"
        assert get_app("specfem3d").name == "specfem3d"
        assert get_app("uh3d").name == "uh3d"

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_app("lammps")
