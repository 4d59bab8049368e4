"""The BLAS thread rule of linalg: one OpenBLAS thread after import, the
recorded count for an eigh or a library call of dimension PARALLEL_DIM or
more, and so for a CLI command on such a Hamiltonian, and nothing touched
where the user set a thread variable or there is no OpenBLAS API; and how
far a command's printed numbers move between two counts."""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from zenogeo import cli, linalg, zeno

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
API = linalg._openblas_api()
needs_api = pytest.mark.skipif(API is None, reason="numpy's BLAS has no OpenBLAS thread API")

# What a subprocess reports after import zenogeo: OpenBLAS's thread count,
# the count the rule recorded and whether the rule holds the API.
REPORT = (
    "import json; import zenogeo; from zenogeo import linalg; "
    "get = linalg._openblas_api()[0]; "
    "print(json.dumps([get(), linalg._BLAS_THREADS, linalg._BLAS_API is not None]))"
)


def run(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """argv run by this interpreter with zenogeo on its path, none of the
    thread variables set, and env added."""
    base = {k: v for k, v in os.environ.items() if k not in linalg.THREAD_VARIABLES}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *argv], env={**base, **env}, capture_output=True, timeout=120)


def report(code: str = REPORT, **env: str):
    proc = run(["-c", code], **env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_api
def test_import_sets_one_thread():
    threads, recorded, active = report()
    assert threads == 1
    assert recorded >= 1 and active


@needs_api
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS may cap a count at the cores")
@pytest.mark.parametrize("variable", linalg.THREAD_VARIABLES)
def test_a_user_thread_count_is_kept(variable):
    threads, recorded, active = report(**{variable: "2"})
    assert (threads, recorded, active) == (2, 1, False)


@needs_api
def test_without_the_api_nothing_is_set():
    # ctypes opens no library: the import leaves OpenBLAS the count that a
    # plain import records, and _eigh at PARALLEL_DIM is np.linalg.eigh on
    # that count, bit for bit.
    code = (
        "import ctypes, json; import numpy as np; cdll = ctypes.CDLL\n"
        "def missing(*args, **kwargs): raise OSError('no library')\n"
        "ctypes.CDLL = missing\n"
        "from zenogeo import linalg\n"
        "ctypes.CDLL = cdll\n"
        "get = linalg._openblas_api()[0]; before = get()\n"
        "R = np.random.default_rng(0).standard_normal((2, linalg.PARALLEL_DIM, linalg.PARALLEL_DIM))\n"
        "H = R[0] + 1j * R[1]; H = H + H.conj().T\n"
        "E, V = linalg._eigh(H); E0, V0 = np.linalg.eigh(H)\n"
        "print(json.dumps([linalg._BLAS_API is None, before, get(), "
        "bool(np.array_equal(E, E0) and np.array_equal(V, V0))]))"
    )
    none, before, after, same = report(code)
    assert none and same
    assert before == after == report()[1]


def test_one_blas_thread_stands_aside(monkeypatch):
    # A user's variable, or no API, leaves the rule without the API.
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert linalg._one_blas_thread() == (None, 1)
    monkeypatch.delenv("OMP_NUM_THREADS")
    for variable in linalg.THREAD_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.setattr(linalg, "_openblas_api", lambda: None)
    assert linalg._one_blas_thread() == (None, 1)


@needs_api
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("before, recorded", [(1, 2), (2, 1)], ids=["rule", "host"])
def test_large_eigh_runs_on_the_recorded_threads(before, recorded, fails, monkeypatch):
    # The count in force before the call comes back after it: the rule's
    # 1, or a count the host program chose after import.
    get, set_ = API
    own = get()
    monkeypatch.setattr(linalg, "_BLAS_API", API)
    monkeypatch.setattr(linalg, "_BLAS_THREADS", recorded)
    eigh = np.linalg.eigh
    seen = []

    def observed(a):
        seen.append(get())
        if fails:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", observed)
    try:
        set_(before)
        for n in (linalg.PARALLEL_DIM - 1, linalg.PARALLEL_DIM):
            try:
                linalg._eigh(np.eye(n, dtype=np.complex128))
            except np.linalg.LinAlgError:
                assert fails
        after = get()
    finally:
        set_(own)
    assert seen == [before, recorded]
    assert after == before


@needs_api
@pytest.mark.parametrize(
    "argv, observe",
    [
        (["converge", "--projector", "random:2", "--n-max", "8"], (zeno, "_step_power")),
        (["survival", "--state", "random", "--t-max", "1", "--samples", "2"], (linalg, "_amplitudes")),
    ],
    ids=["converge", "survival"],
)
def test_a_large_command_runs_on_the_recorded_threads(argv, observe, monkeypatch, capsys):
    # A command's work, not only its eigh, runs on the recorded count from
    # n = PARALLEL_DIM, and on the count before it afterwards.  Observed
    # inside the library calls, where the rule is applied: the one
    # measured-step power of a scan to N = 8, and the one amplitude sum.
    get, set_ = API
    own = get()
    monkeypatch.setattr(linalg, "_BLAS_API", API)
    monkeypatch.setattr(linalg, "_BLAS_THREADS", 2)
    module, name = observe
    call = getattr(module, name)
    seen = []

    def observed(*args):
        seen.append(get())
        return call(*args)

    monkeypatch.setattr(module, name, observed)
    try:
        set_(1)
        codes = [
            cli.main([argv[0], "--hamiltonian", f"random:{n}", *argv[1:]])
            for n in (linalg.PARALLEL_DIM - 1, linalg.PARALLEL_DIM)
        ]
        after = get()
    finally:
        set_(own)
    capsys.readouterr()
    assert codes == [0, 0]
    assert seen == [1, 2]
    assert after == 1


# Each library call and a function its body calls after the checks.
LIBRARY = {
    "ZenoSetup": (lambda H, P, psi, phi: zeno.ZenoSetup(H, P, psi), (zeno, "require_projector")),
    "convergence_scan": (lambda H, P, psi, phi: zeno.convergence_scan(zeno.ZenoSetup(H, P), 1.0, [8, 16]), (zeno, "_step_power")),
    "zeno_product": (lambda H, P, psi, phi: zeno.zeno_product(zeno.ZenoSetup(H, P), 1.0, 8), (zeno, "_step_power")),
    "measured_trajectory": (lambda H, P, psi, phi: zeno.measured_trajectory(zeno.ZenoSetup(H, P, psi), 1.0, 8, 2), (zeno, "_step_power")),
    "zeno_hamiltonian": (lambda H, P, psi, phi: zeno.zeno_hamiltonian(H, P), (zeno, "require_projector")),
    "zeno_limit_unitary": (lambda H, P, psi, phi: zeno.zeno_limit_unitary(H, P, 1.0), (zeno, "_propagator")),
    "survival_probability": (lambda H, P, psi, phi: linalg.survival_probability(phi, H, [0.0, 1.0]), (linalg, "_amplitudes")),
    "survival_amplitude": (lambda H, P, psi, phi: linalg.survival_amplitude(phi, H, 1.0), (linalg, "_amplitudes")),
    "short_time_coefficient": (lambda H, P, psi, phi: linalg.short_time_coefficient(phi, H), (linalg, "_probabilities")),
    "evolve": (lambda H, P, psi, phi: linalg.evolve(phi, H, 1.0), (linalg, "_propagator")),
    "expm_antihermitian": (lambda H, P, psi, phi: linalg.expm_antihermitian(H, 1.0), (linalg, "_propagator")),
    "variance": (lambda H, P, psi, phi: linalg.variance(H, phi), (np, "vdot")),
    "zeno_time": (lambda H, P, psi, phi: linalg.zeno_time(phi, H), (np, "vdot")),
}


@needs_api
@pytest.mark.parametrize("work, observe", LIBRARY.values(), ids=LIBRARY)
def test_a_large_library_call_runs_on_the_recorded_threads(work, observe, monkeypatch):
    # As for a command: a library call on random:384 runs its products on
    # the recorded count, one on random:383 on 1, and each leaves 1 behind.
    get, set_ = API
    own = get()
    monkeypatch.setattr(linalg, "_BLAS_API", API)
    monkeypatch.setattr(linalg, "_BLAS_THREADS", 2)
    module, name = observe
    call = getattr(module, name)
    seen = []

    def observed(*args):
        seen[-1].add(get())
        return call(*args)

    monkeypatch.setattr(module, name, observed)
    try:
        set_(1)
        for n in (linalg.PARALLEL_DIM - 1, linalg.PARALLEL_DIM):
            rng = np.random.default_rng(n)
            H = cli.parse_hamiltonian_spec(f"random:{n}", rng)
            P = cli.parse_projector_spec("random:2", n, rng)
            psi = P @ cli.parse_state_spec("random", n, rng)
            seen.append(set())
            work(H, P, psi / np.linalg.norm(psi), cli.parse_state_spec("random", n, rng))
        after = get()
    finally:
        set_(own)
    assert seen == [{1}, {2}]
    assert after == 1


def test_every_eigh_goes_through_the_one_path():
    # The one np.linalg.eigh call of the package is in _eigh.
    calls = [
        (path.name, line)
        for path in sorted((SRC / "zenogeo").glob("*.py"))
        for line in path.read_text().splitlines()
        if "np.linalg.eigh(" in line and not line.lstrip().startswith(('"""', "#"))
    ]
    assert calls == [("linalg.py", "        return np.linalg.eigh(H)")]


CONVERGE_200 = ["converge", "--hamiltonian", "random:200", "--projector", "random:20", "--n-max", "65536"]


@pytest.fixture(scope="module")
def converge_200() -> bytes:
    """The stdout of CONVERGE_200 run as python -m zenogeo.cli."""
    proc = run(["-m", "zenogeo.cli", *CONVERGE_200])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_api
def test_converge_prints_the_bytes_of_a_one_thread_run(converge_200):
    # n = 200 is below PARALLEL_DIM: every BLAS call of the run is on one
    # thread, so the printed digits do not move with the host's cores.
    # Without the API the rule does nothing, and the default run is on
    # OpenBLAS's own count.
    one = run(["-m", "zenogeo.cli", *CONVERGE_200], OPENBLAS_NUM_THREADS="1")
    assert one.returncode == 0, one.stderr
    assert converge_200 == one.stdout


def test_a_second_converge_in_process_takes_no_eigh(converge_200, monkeypatch, capsys):
    # Two runs through cli.main in one process print the module's bytes;
    # the second takes no eigh, as H and its rank-20 compression are both
    # in linalg._eigh's memo.
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    outs = []
    for _ in range(2):
        assert cli.main(CONVERGE_200) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs == [converge_200, converge_200]
    assert calls == [200, 20]


# Saves to sys.argv[1], by jsonio, the P that converge --hamiltonian
# random:400 --projector random:200 --seed 3 draws.
SAVE_RANK_200 = (
    "import sys; import numpy as np; from zenogeo import cli, jsonio; "
    "rng = np.random.default_rng(3); cli.parse_hamiltonian_spec('random:400', rng); "
    "jsonio.save_matrix(sys.argv[1], cli.parse_projector_spec('random:200', 400, rng))"
)


@pytest.fixture(scope="module")
def rank_200(tmp_path_factory) -> pathlib.Path:
    """SAVE_RANK_200's file, drawn with none of the thread variables set."""
    path = tmp_path_factory.mktemp("rank-200") / "P.json"
    proc = run(["-c", SAVE_RANK_200, str(path)])
    assert proc.returncode == 0, proc.stderr
    return path


@needs_api
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS may cap a count at the cores")
def test_a_seed_fixes_a_random_rank_preset(rank_200, tmp_path):
    # The preset's qr and QQ^dagger run on the count in force, one after
    # import, so P follows --seed alone: a draw with no thread variable
    # saves the bytes of one under OPENBLAS_NUM_THREADS=1.  At rank 200
    # qr gives other bits on two threads than on one.
    one = tmp_path / "P.json"
    proc = run(["-c", SAVE_RANK_200, str(one)], OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    assert one.read_bytes() == rank_200.read_bytes()


# Commands on n >= PARALLEL_DIM; {P} stands for the rank_200 file.
LARGE = {
    "converge": ["converge", "--hamiltonian", "random:384", "--projector", "random:20", "--n-max", "64"],
    "converge-rank-200": ["converge", "--hamiltonian", "random:400", "--projector", "{P}", "--n-max", "64", "--seed", "3"],
    "survival": ["survival", "--hamiltonian", "random:384", "--state", "random", "--t-max", "2", "--samples", "50"],
    "zeno-time": ["zeno-time", "--hamiltonian", "random:400", "--state", "random", "--seed", "5"],
}


def in_process(argv, monkeypatch, capsys) -> bytes:
    """The stdout of cli.main(argv) with the rule holding the API, from
    one thread: each library call runs on the recorded count."""
    get, set_ = API
    own = get()
    monkeypatch.setattr(linalg, "_BLAS_API", API)
    try:
        set_(1)
        assert cli.main(argv) == 0
    finally:
        set_(own)
    return capsys.readouterr().out.encode()


@needs_api
@pytest.mark.parametrize("argv", LARGE.values(), ids=LARGE)
def test_a_large_command_prints_the_bytes_of_a_run_on_the_recorded_count(argv, rank_200, monkeypatch, capsys):
    # From n = PARALLEL_DIM the printed digits follow the thread count: run
    # in process, a command prints the bytes of a process whose every BLAS
    # call runs on the recorded count.  The rank-200 P is read from a file,
    # as its draw runs on the count in force in either process.
    argv = [arg.format(P=rank_200) for arg in argv]
    out = in_process(argv, monkeypatch, capsys)
    want = run(["-m", "zenogeo.cli", *argv], OPENBLAS_NUM_THREADS=str(linalg._BLAS_THREADS))
    assert want.returncode == 0, want.stderr
    assert out == want.stdout


def columns(out: bytes) -> dict[str, np.ndarray]:
    """A command's csv stdout by column, and a '# slope s' trailer as the
    column slope."""
    head, *lines = out.decode().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    cols = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(head.split(","))}
    cols.update((line.split()[1], float(line.split()[2])) for line in lines if line.startswith("#"))
    return cols


def thread_tolerance(command: str, cols, n: int, norm: float, r: int, t: float) -> dict:
    """How far each printed number of command may move between two BLAS
    thread counts, as README "BLAS threads" states it: first order in the
    eigh and qr backward errors, n eps |H| each, and for converge in the
    roundoff of N powered steps as well."""
    eps = np.finfo(np.float64).eps
    if command == "survival":
        ht = norm * cols["t"]
        return {"t": 0.0, "p": 4 * n * eps * (1 + ht), "quadratic_approx": 4 * n * eps * ht**2}
    if command == "zeno-time":
        var = 4 * n * eps * norm**2
        return {"variance": var, "tau_z": var / (2 * cols["variance"]) * cols["tau_z"]}
    err = 2 * np.sqrt(r) * eps * (2 * n * norm * t + cols["N"])
    return {"N": 0.0, "error_spectral": err, "error_frobenius": err, "slope": 3 * np.max(err / cols["error_spectral"])}


@needs_api
@pytest.mark.parametrize("argv", LARGE.values(), ids=LARGE)
def test_a_large_command_moves_within_its_thread_tolerance(argv, rank_200, monkeypatch, capsys):
    # A run on the recorded count and one under OPENBLAS_NUM_THREADS=1 print
    # numbers within thread_tolerance of each other.
    argv = [arg.format(P=rank_200) for arg in argv]
    rule = columns(in_process(argv, monkeypatch, capsys))
    proc = run(["-m", "zenogeo.cli", *argv], OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    one = columns(proc.stdout)
    flags = dict(zip(argv[1::2], argv[2::2]))
    rng = np.random.default_rng(int(flags.get("--seed", 0)))
    H = cli.parse_hamiltonian_spec(flags["--hamiltonian"], rng)
    n = H.shape[0]
    r = round(np.trace(cli.parse_projector_spec(flags["--projector"], n, rng)).real) if "--projector" in flags else n
    norm = np.abs(np.linalg.eigvalsh(H)).max()
    tol = thread_tolerance(argv[0], one, n, norm, r, float(flags.get("--t", 1.0)))
    assert tol.keys() == one.keys() == rule.keys()
    for name, bound in tol.items():
        assert np.all(np.abs(rule[name] - one[name]) <= bound), name
