import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from qcmd import ModelSpec, build_model, espec, model, qref, wkb
from qcmd._util import periodic_grid
from qcmd.errors import ResolutionError

FAMILIES = {
    "free": ModelSpec(family="free"),
    "scalar_cos": ModelSpec(family="scalar_cos", params={"a": 0.1}),
    "two_level_gap": ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2),
    "two_level_cross": ModelSpec(family="two_level_cross", d=2),
    "multi_level": ModelSpec(family="multi_level", d=3,
                             params={"a0": 0.2, "gaps": [[1.0, 0.02], [2.0, 0.03]],
                                     "rot": 0.3}),
}


def free_model():
    return build_model(FAMILIES["free"])


def gap_model():
    return build_model(FAMILIES["two_level_gap"])


def dense_collocation(m, M, n, laplacian="spectral"):
    """The (n*d)^2 collocation matrix, built entry by entry as the reference."""
    if laplacian == "spectral":
        k = 2.0 * np.pi / m.L * np.fft.fftfreq(n, d=1.0 / n)
        D2 = np.fft.ifft(-(k ** 2)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
        D2 = 0.5 * (D2 + D2.T)
    else:
        D2 = np.zeros((n, n))
        for off, coef in {0: -5.0 / 2.0, 1: 4.0 / 3.0, 2: -1.0 / 12.0}.items():
            for i in range(n):
                D2[i, (i + off) % n] += coef
                if off:
                    D2[i, (i - off) % n] += coef
        D2 /= (m.L / n) ** 2
    H = np.kron(-D2 / (2.0 * M), np.eye(m.d))
    for i, x in enumerate(periodic_grid(m.L, n)):
        H[i * m.d:(i + 1) * m.d, i * m.d:(i + 1) * m.d] += model.evaluate_potential(m, x)
    return 0.5 * (H + H.T)


def real_fourier_basis(n):
    """Columns 1, cos 1, sin 1, ..., Nyquist on the grid, orthonormal."""
    theta = 2.0 * np.pi * np.arange(n) / n
    cols = [np.ones(n) / np.sqrt(n)]
    for m in range(1, (n - 1) // 2 + 1):
        cols += [np.sqrt(2.0 / n) * np.cos(m * theta), np.sqrt(2.0 / n) * np.sin(m * theta)]
    if n % 2 == 0:
        cols.append(np.cos(np.pi * np.arange(n)) / np.sqrt(n))
    return np.column_stack(cols)


def dense_nearest(Hd, E, count):
    vals = np.linalg.eigvalsh(Hd)
    return vals[np.argsort(np.abs(vals - E), kind="stable")[:count]]


def test_free_spectrum_exact():
    m = free_model()
    M = 64.0
    H = qref.assemble_hamiltonian(m, M, 64)
    pairs = qref.eigensolve_near(H, 0.0, count=3)
    lowest = sorted(p.E for p in pairs)
    k1 = (2 * np.pi / m.L) ** 2 / (2 * M)
    assert abs(lowest[0]) < 1e-12
    assert lowest[1] == pytest.approx(k1, rel=1e-10)
    assert lowest[2] == pytest.approx(k1, rel=1e-10)   # (+k, -k) doublet


def test_hamiltonian_exactly_symmetric():
    # the full operator is symmetric level blocks at the nodes plus a circulant
    # kinetic term, which is symmetric when its symbol is even in frequency
    m = gap_model()
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    assert np.abs(H.potential - H.potential.transpose(0, 2, 1)).max() == 0.0
    mirror = (-np.arange(H.n_grid)) % H.n_grid
    assert np.abs(H.kinetic - H.kinetic[mirror]).max() == 0.0


def multi_level_spec(rot):
    return ModelSpec(family="multi_level", d=3,
                     params={**FAMILIES["multi_level"].params, "rot": rot})


# V even in X: every sine coefficient of V is zero
EVEN = {name: FAMILIES[name] for name in ("free", "scalar_cos", "two_level_gap")}
EVEN["multi_level rot=0"] = multi_level_spec(0.0)
# a rotation rot sin(X) A gives V(-X) = P V(X) P with P = diag(+-1), not V(X),
# so even rot = 1e-9 leaves sine coefficients well above the rounding cut
ALL = {**FAMILIES, **EVEN, "multi_level rot=1e-9": multi_level_spec(1e-9)}
# the declared involutions that hold: every family has its reflection, and
# only two_level_gap the half shift V(X + pi) = sx V(X) sx (on an even grid)
HALF_SHIFT = {"two_level_gap"}


def expected_labels(m, H, half):
    """Block key of each position (mode r, level a), in the order r * d + a:
    2 for a negative reflection label, plus 1 for a negative half-shift one."""
    n = H.n_grid
    r = np.arange(n)
    mode_m = (r + 1) // 2
    sine = (r > 0) & (r % 2 == 0)
    P_r, P_h = m.involutions

    def signs(P):
        return np.sign(np.einsum("ia,ij,ja->a", H.levels, P, H.levels))

    key = 2 * (np.where(sine, -1, 1)[:, None] * signs(P_r) < 0)
    if half:
        key = key + (((-1) ** mode_m)[:, None] * signs(P_h) < 0)
    return key.reshape(-1)


def expand_band(band):
    """The symmetric matrix whose upper band is stored in LAPACK form."""
    b = band.shape[0] - 1
    full = np.diag(band[b])
    for k in range(1, b + 1):
        full = full + np.diag(band[b - k, k:], k) + np.diag(band[b - k, k:], -k)
    return full


def test_band_is_orthogonal_transform_of_collocation():
    # the stored band, mirrored, is Q^T H Q exactly with Q the real Fourier
    # modes times the rotated levels H.levels, in the position order H.order
    # (so H stays symmetric), nothing above rounding lies outside it, and no
    # entry couples two blocks; odd n has no Nyquist mode
    for family in sorted(ALL):
        m = build_model(ALL[family])
        for n in (32, 33):
            H = qref.assemble_hamiltonian(m, 64.0, n)
            assert np.abs(H.levels.T @ H.levels - np.eye(m.d)).max() < 1e-15
            Q = np.kron(real_fourier_basis(n), H.levels)[:, H.order]
            expect = Q.T @ dense_collocation(m, 64.0, n) @ Q
            b = H.matrix.shape[0] - 1
            full = expand_band(H.matrix)
            assert np.abs(full - expect).max() < 1e-12
            assert np.abs(np.triu(expect, b + 1)).max(initial=0.0) < 1e-13
            for lo, hi in H.blocks:
                assert np.all(full[lo:hi, hi:] == 0.0)


@pytest.mark.parametrize("n", [32, 33])
@pytest.mark.parametrize("family", sorted(ALL))
def test_only_even_potentials_split_into_parity_blocks(family, n):
    # positions of equal labels form one block, the blocks in ascending key,
    # each in the order m, cos/sin, level (r * d + a ascending)
    m = build_model(ALL[family])
    H = qref.assemble_hamiltonian(m, 64.0, n)
    half = family in HALF_SHIFT and n % 2 == 0
    key = expected_labels(m, H, half)
    assert H.order.tolist() == np.argsort(key, kind="stable").tolist()
    sizes = [int(c) for c in np.bincount(key) if c]
    assert [hi - lo for lo, hi in H.blocks] == sizes
    assert H.blocks[0][0] == 0 and all(a[1] == b[0] for a, b in zip(H.blocks, H.blocks[1:]))
    # the rotated levels are eigenvectors of every involution that holds
    for P, holds in zip(m.involutions, (True, half)):
        if holds:
            U = H.levels
            assert np.abs(P @ U - U * np.sign(np.einsum("ia,ij,ja->a", U, P, U))).max() < 1e-15
    b = H.matrix.shape[0] - 1
    if family == "two_level_gap":
        # rotated into sx's eigenvectors V is [[delta, cos X], [cos X, -delta]]:
        # four tridiagonal blocks on an even grid, the two parity blocks else
        assert len(H.blocks) == (4 if n % 2 == 0 else 2)
        assert b == (1 if n % 2 == 0 else 2)
        if n % 2 == 1:
            assert np.array_equal(H.levels, np.eye(2))
    elif family == "two_level_cross":
        # sx rotates V to [[1 - cos X, sin X], [sin X, cos X - 1]]
        assert len(H.blocks) == 2 and b <= 3
    else:
        assert len(H.blocks) == 2
        if m.d == 1:
            assert b <= 1                     # harmonic K = 1 spans one mode of either parity


def assert_densities_match_dense(m, H, E):
    """The 8 levels nearest E: eigenvalues to 1e-12 and non-degenerate
    densities to 1e-9 against the dense eigh."""
    n = H.n_grid
    vals, vecs = np.linalg.eigh(dense_collocation(m, H.M, n))
    h = m.L / n
    checked = 0
    for p in qref.eigensolve_near(H, E, count=8):
        j = int(np.argmin(np.abs(vals - p.E)))
        assert abs(vals[j] - p.E) < 1e-12
        if np.delete(np.abs(vals - vals[j]), j).min() < 1e-4:
            continue                          # a (near-)degenerate level
        rho = np.sum(vecs[:, j].reshape(n, m.d) ** 2, axis=1)
        assert np.abs(p.density - rho / (rho.sum() * h)).max() < 1e-9
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("family", sorted(ALL))
def test_split_eigendensities_match_dense_oracle(family):
    m = build_model(ALL[family])
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    assert len(H.blocks) == (4 if family in HALF_SHIFT else 2)
    assert_densities_match_dense(m, H, 0.0)


@pytest.mark.parametrize("family", sorted(ALL))
def test_count_above_the_smaller_block(family):
    # every level of tiny grids, and one more than the smallest block holds
    m = build_model(ALL[family])
    for n in range(1, 7):
        H = qref.assemble_hamiltonian(m, 4.0, n)
        sizes = [hi - lo for lo, hi in H.blocks]
        N = n * m.d
        expect = np.linalg.eigvalsh(dense_collocation(m, 4.0, n))
        for count in sorted({min(sizes) + 1, N} - {N + 1}):
            pairs = qref.eigensolve_near(H, 0.2, count=count)
            got = np.array([p.E for p in pairs])
            assert np.abs(np.abs(got - 0.2) - np.sort(np.abs(expect - 0.2))[:count]).max() < 1e-12
            Phi = np.column_stack([p.Phi.reshape(-1) for p in pairs])
            assert np.abs(m.L / n * Phi.T @ Phi - np.eye(count)).max() < 1e-12
        with pytest.raises(ValueError, match="exceeds"):
            qref.eigensolve_near(H, 0.2, count=N + 1)


def test_block_narrower_than_the_band():
    # V = cos 3X on 6 nodes: cos 0 and cos 3 couple, so the band is 3 wide,
    # and the sine block (sin 1, sin 2) has two modes
    base = build_model(FAMILIES["scalar_cos"])
    m = dataclasses.replace(base, _fields=lambda X: (np.cos(3.0 * X)[:, None, None],
                                                     (-3.0 * np.sin(3.0 * X))[:, None, None]))
    H = qref.assemble_hamiltonian(m, 4.0, 6)
    assert H.matrix.shape[0] - 1 == 3 and H.blocks == ((0, 4), (4, 6))
    expect = np.linalg.eigvalsh(dense_collocation(m, 4.0, 6))
    pairs = qref.eigensolve_near(H, 0.0, count=6)
    assert np.abs(np.sort([p.E for p in pairs]) - expect).max() < 1e-12


@pytest.mark.parametrize("term, n_blocks", [("0.2", 2), ("0.2 sin X", 1)])
def test_involutions_dropped_when_v_breaks_them(term, n_blocks):
    # V_11 of two_level_gap plus 0.2 breaks V(X + pi) = sx V(X) sx and leaves
    # the parity split, in the unrotated levels; plus 0.2 sin X breaks the
    # reflection too and leaves one block in the interleaved order
    base = gap_model()

    def fields(X):
        V, dV = base._fields(X)
        V[:, 1, 1] += 0.2 if term == "0.2" else 0.2 * np.sin(X)
        return V, dV

    m = dataclasses.replace(base, _fields=fields)
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    assert len(H.blocks) == n_blocks and np.array_equal(H.levels, np.eye(2))
    if n_blocks == 1:
        assert H.order.tolist() == list(range(H.n_grid * m.d))
    assert_densities_match_dense(m, H, 0.1)


@pytest.mark.parametrize("count", [2, 3])
def test_ties_across_blocks_pick_the_lower_level(count):
    # free levels j^2 / 128 at M = 64, exact in binary; the target 2.5 / 128 is
    # exactly as far from the doublet cos 1, sin 1 as from cos 2, sin 2, and the
    # cosines of both doublets sit in the first block.  Ties go to the lower
    # level, as in one ascending spectrum, not to the first block
    m = free_model()
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    got = [p.E for p in qref.eigensolve_near(H, 2.5 / 128.0, count=count)]
    assert got == [1 / 128.0, 1 / 128.0, 4 / 128.0][:count]



@pytest.mark.parametrize("laplacian", ["spectral", "fd4"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_eigensolve_matches_dense_oracle(family, laplacian):
    m = build_model(FAMILIES[family])
    for n, M, E, count in ((64, 64.0, 0.3, 6), (128, 256.0, 1.5, 8)):
        H = qref.assemble_hamiltonian(m, M, n, laplacian=laplacian)
        pairs = qref.eigensolve_near(H, E, count=count)
        Hd = dense_collocation(m, M, n, laplacian)
        expect = dense_nearest(Hd, E, count)
        got = np.array([p.E for p in pairs])
        # same chosen set, in the same order of distance from the target
        assert np.abs(np.abs(got - E) - np.abs(expect - E)).max() < 1e-12
        assert np.abs(np.sort(got) - np.sort(expect)).max() < 1e-12
        for p in pairs:
            vec = p.Phi.reshape(-1)
            assert np.linalg.norm(Hd @ vec - p.E * vec) / np.linalg.norm(vec) < 1e-11


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_level_density_window_matches_wide_window(family, monkeypatch):
    m = build_model(FAMILIES[family])
    cases = [(512, 1024.0, 1.4, 16), (256, 256.0, 0.9, 5)]
    sized = []
    for n, M, E, count in cases:
        H = qref.assemble_hamiltonian(m, M, n)
        sized.append((H, E, count, qref.eigensolve_near(H, E, count=count)))
    # the window the solver used to start from: 0.05 of the operator scale
    monkeypatch.setattr(qref, "_window_half_width", lambda H, E, count, scale: 0.05 * scale)
    for H, E, count, pairs in sized:
        wide = qref.eigensolve_near(H, E, count=count)
        assert np.abs(np.array([p.E for p in pairs]) - [p.E for p in wide]).max() < 1e-12


def test_level_density_window_holds_about_twice_count():
    # the window the gap sweep solves at M = 4096 (it held 650 levels at 0.05 scale)
    m = gap_model()
    H = qref.assemble_hamiltonian(m, 4096.0, 2048)
    diag = np.diagonal(H.potential, axis1=1, axis2=2) + H.kinetic.mean()
    width = qref._window_half_width(H, 1.4, 16, max(1.0, np.abs(diag).max()))
    found = scipy.linalg.eig_banded(H.matrix, eigvals_only=True, select="v",
                                    select_range=(1.4 - width, 1.4 + width))
    assert 24 <= found.size <= 48


@pytest.mark.parametrize("count", [3, 8])
def test_free_exact_doublets(count):
    m = free_model()
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    # the target sits exactly on the ground eigenvalue, partners are exact doublets
    pairs = qref.eigensolve_near(H, 0.0, count=count)
    k1 = (2 * np.pi / m.L) ** 2 / (2 * 64.0)
    levels = np.array([0] + [j * j for j in range(1, 5) for _ in range(2)])[:count]
    assert np.abs(np.sort([p.E for p in pairs]) - levels * k1).max() < 1e-12
    h = m.L / H.n_grid
    Phi = np.column_stack([p.Phi[:, 0] for p in pairs])
    assert np.abs(h * Phi.T @ Phi - np.eye(count)).max() < 1e-12
    assert max(p.residual for p in pairs) < 1e-12


def test_residual_norm_complex_wkb_matches_dense():
    m = build_model(FAMILIES["scalar_cos"])
    M = 256.0
    k = wkb.bohr_sommerfeld_index(m, 1.0, M)
    E = wkb.quantized_energy(m, k, M)
    n = 128
    field = wkb.field_from_energy(m, E, M, n_grid=n, k=k)
    Phi = wkb.assemble_wkb_eigenfunction(m, field, espec.eigendecompose_field(m, field.grid), M)
    assert np.iscomplexobj(Phi) and np.abs(Phi.imag).max() > 0.1
    H = qref.assemble_hamiltonian(m, M, n)
    vec = Phi.reshape(-1)
    dense = np.linalg.norm(dense_collocation(m, M, n) @ vec - E * vec) / np.linalg.norm(vec)
    assert qref.residual_norm(H, Phi, E) == pytest.approx(dense, rel=1e-10)


def test_eigensolve_bit_identical_across_runs_and_threads():
    m = gap_model()
    H = qref.assemble_hamiltonian(m, 1024.0, 512)

    def solve(_):
        return [(p.E, p.Phi.tobytes()) for p in qref.eigensolve_near(H, 1.4, count=16)]

    first = solve(0)
    with ThreadPoolExecutor(max_workers=3) as pool:
        runs = list(pool.map(solve, range(3)))
    assert all(run == first for run in [solve(0)] + runs)


def test_gap_eigenvalues_real_sorted():
    m = gap_model()
    H = qref.assemble_hamiltonian(m, 64.0, 128)
    pairs = qref.eigensolve_near(H, 0.3, count=6)
    energies = [p.E for p in pairs]
    assert all(np.isreal(e) for e in energies)
    dists = [abs(e - 0.3) for e in energies]
    assert dists == sorted(dists)


def test_residuals_and_orthonormality():
    m = gap_model()
    H = qref.assemble_hamiltonian(m, 256.0, 256)
    pairs = qref.eigensolve_near(H, 0.4, count=4)
    h = m.L / H.n_grid
    for p in pairs:
        assert p.residual <= 1e-8
    for a in pairs:
        for b in pairs:
            ip = h * np.sum(np.conj(a.Phi) * b.Phi).real
            expect = 1.0 if a is b else 0.0
            if abs(a.E - b.E) > 1e-12 or a is b:
                assert abs(ip - expect) < 1e-10 or abs(a.E - b.E) < 1e-12


def test_target_below_ground_returns_lowest():
    m = free_model()
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    pairs = qref.eigensolve_near(H, -50.0, count=2)
    assert min(p.E for p in pairs) == pytest.approx(0.0, abs=1e-12)


def test_density_free_uniform_and_normalized():
    m = free_model()
    H = qref.assemble_hamiltonian(m, 64.0, 64)
    pair = qref.eigensolve_near(H, 0.1, count=1)[0]
    rho = qref.density_from_state(pair)
    h = m.L / H.n_grid
    assert abs(rho.sum() * h - 1.0) < 1e-10
    # ground state of the free torus is flat
    ground = qref.eigensolve_near(H, -1.0, count=1)[0]
    assert np.abs(ground.density - 1.0 / m.L).max() < 1e-10


def test_observable_quadrature():
    grid = np.arange(64) * (2 * np.pi / 64)
    rho = np.full(64, 1.0 / (2 * np.pi))
    assert qref.observable(rho, lambda x: np.ones_like(x), grid) == pytest.approx(1.0, abs=1e-14)
    assert abs(qref.observable(rho, lambda x: np.cos(x), grid)) < 1e-12
    with pytest.raises(ValueError):
        qref.observable(rho[:10], np.cos, grid)


def test_residual_norm_exact_pair_and_mismatch():
    m = gap_model()
    H = qref.assemble_hamiltonian(m, 64.0, 128)
    pair = qref.eigensolve_near(H, 0.3, count=1)[0]
    assert qref.residual_norm(H, pair.Phi, pair.E) <= 1e-8
    with pytest.raises(ValueError, match="mismatch"):
        qref.residual_norm(H, pair.Phi[:10], pair.E)


def test_grid_refinement_converged():
    m = gap_model()
    M = 64.0
    vals = []
    for n in (128, 256):
        H = qref.assemble_hamiltonian(m, M, n)
        vals.append(qref.eigensolve_near(H, 0.3, count=1)[0].E)
    assert abs(vals[1] - vals[0]) <= 1e-8


def test_resolution_rule_refuses():
    m = free_model()
    with pytest.raises(ResolutionError) as err:
        qref.assemble_hamiltonian(m, 4096.0, 64, e_max=2.0)
    assert err.value.required > 64


def test_fd4_laplacian_close_to_spectral():
    m = gap_model()
    Hs = qref.assemble_hamiltonian(m, 64.0, 512, laplacian="spectral")
    Hf = qref.assemble_hamiltonian(m, 64.0, 512, laplacian="fd4")
    Es = qref.eigensolve_near(Hs, 0.3, count=1)[0].E
    Ef = qref.eigensolve_near(Hf, 0.3, count=1)[0].E
    assert abs(Es - Ef) < 1e-4


def test_doublet_splitting_small():
    m = build_model(ModelSpec(family="scalar_cos", params={"a": 0.1}))
    H = qref.assemble_hamiltonian(m, 256.0, 256)
    pairs = qref.eigensolve_near(H, 1.0, count=2)
    assert abs(pairs[0].E - pairs[1].E) < 1e-6
