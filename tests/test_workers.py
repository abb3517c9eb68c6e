"""verify_iso's pairs, sampled or Cayley-graph edges, split over forked
workers that the OS places.

Each test patches twists.usable_cpus to one real allowed CPU repeated k
times, so that k workers run on any host with fork and CPU affinity.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import congwit
from congwit import twists
from congwit.cli import main
from congwit.errors import InputError
from congwit.matrices import elementary
from congwit.presets import method_a_pair, method_b_pair, method_c_pair
from congwit.quotients import CentralPrincipal, FiniteQuotientGroup, Full, Principal, subgroup_spec
from congwit.rings import rational_place
from congwit.twists import CentralTransport, PlaceSwap, verify_iso

pytestmark = pytest.mark.skipif(
    not twists.usable_cpus(), reason="needs os.fork and os.sched_getaffinity"
)

CPU = min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
PAIRS = 400
SEED = 3


def open_fds():
    return sorted(os.listdir(f"/proc/{os.getpid()}/fd"))


@pytest.fixture(autouse=True)
def nothing_left_behind():
    """The parent's CPU mask is restored, every child is reaped and every
    pipe closed, also after an error."""
    mask, fds = os.sched_getaffinity(0), open_fds()
    yield
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.fixture
def workers(monkeypatch):
    """workers(k): run on k workers and count the forks this process makes."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def use(k):
        monkeypatch.setattr(twists, "usable_cpus", lambda: [CPU] * k)
        del forks[:]
        return forks

    return use


def failing_child_seed(monkeypatch, pairs, fail):
    """Make sampled pair i call fail(i) for every i in pairs."""
    child_seed = twists.child_seed

    def patched(master, index):
        if index // 2 in pairs:
            fail(index // 2)
        return child_seed(master, index)

    monkeypatch.setattr(twists, "child_seed", patched)


@pytest.mark.parametrize("bundle_fn", [method_a_pair, method_b_pair, method_c_pair])
def test_reports_do_not_depend_on_the_worker_count(bundle_fn, workers):
    iso = bundle_fn().iso
    reports = []
    for k in (1, 2, 3):
        forks = workers(k)
        reports.append(verify_iso(iso, PAIRS, SEED))
        assert len(forks) == k - 1
    assert reports[0].witnessed and reports[0].samples_used == PAIRS
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_no_worker_count_pins_a_cpu(workers, monkeypatch):
    def refuse(*args):
        raise AssertionError("a worker set a CPU affinity")

    pipes = []
    pipe = os.pipe

    def counting_pipe():
        pipes.append(1)
        return pipe()

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(os, "pipe", counting_pipe)
    iso = method_a_pair().iso
    reports = []
    for k in (1, 2, 3):
        forks = workers(k)
        del pipes[:]
        reports.append(verify_iso(iso, PAIRS, SEED))
        assert len(forks) == len(pipes) == k - 1
    assert reports[0].witnessed and reports[0].samples_used == PAIRS
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_refuted_counts_do_not_depend_on_the_worker_count(workers):
    # only a refuted report can show a chunk whose counts were lost
    a = method_a_pair()
    broken = PlaceSwap(a.quotient1, a.quotient2, a.places[0], a.places[1])
    reports = []
    for k in (1, 2, 3):
        workers(k)
        reports.append(verify_iso(broken, PAIRS, SEED))
    assert reports[0].verdict == "refuted"
    assert reports[0].membership_failures > PAIRS // 2
    assert reports[1] == reports[0] and reports[2] == reports[0]


def order_48_quotients():
    """SL_2 quotients of order 24 * 2 * 1: Full at 3 and the central pair at
    5 and 7, with three generators, so 144 Cayley-graph edges."""
    v3, v5, v7 = (rational_place(p) for p in (3, 5, 7))
    level = {v3: 1, v5: 1, v7: 1}
    specs = (
        {v3: Full(), v5: CentralPrincipal(2, 1), v7: Principal(1)},
        {v3: Full(), v5: Principal(1), v7: CentralPrincipal(2, 1)},
    )
    q1, q2 = (FiniteQuotientGroup(subgroup_spec(2, spec), level) for spec in specs)
    assert q1.order == q2.order == 48 and len(q1.generators) == 3
    return q1, q2, v5, v7


def test_exhaustive_reports_do_not_depend_on_the_worker_count(workers):
    q1, q2, v5, v7 = order_48_quotients()
    iso = CentralTransport(q1, q2, v5, v7, 2)
    reports = []
    for k in (1, 2, 3):
        forks = workers(k)
        reports.append(verify_iso(iso, PAIRS, SEED))
        assert len(forks) == min(k, 144 // twists.PAIRS_PER_WORKER) - 1
    assert reports[0].witnessed and reports[0].exhaustive and reports[0].samples_used == 48
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_exhaustive_refuted_counts_do_not_depend_on_the_worker_count(workers):
    q1, q2, v5, v7 = order_48_quotients()
    broken = PlaceSwap(q1, q2, v5, v7)
    reports = []
    for k in (1, 2, 3):
        workers(k)
        reports.append(verify_iso(broken, PAIRS, SEED))
    assert reports[0].verdict == "refuted" and reports[0].exhaustive
    # once per generator, then once per edge
    assert reports[0].samples_used == 48 and reports[0].membership_failures == 3 + 144
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_no_workers_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert twists.usable_cpus() == []
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert twists.usable_cpus() == sorted(os.sched_getaffinity(0))


def test_too_few_pairs_stay_in_one_process(workers):
    forks = workers(3)
    verify_iso(method_c_pair().iso, 2 * twists.PAIRS_PER_WORKER - 1, SEED)
    assert forks == []


def raise_input_error(index):
    raise InputError(f"sampled pair {index} is bad")


@pytest.mark.parametrize(
    "k,bad,first",
    [
        (2, {300}, 300),
        (3, {300}, 300),
        (3, {150, 300}, 150),
        (2, {100, 300}, 100),
        (3, {50, 350}, 50),
    ],
)
def test_first_chunk_error_reaches_the_caller(k, bad, first, workers, monkeypatch):
    # chunks: k = 2 -> [0, 200) [200, 400); k = 3 -> [0, 133) [133, 266) [266, 400)
    workers(k)
    failing_child_seed(monkeypatch, bad, raise_input_error)
    with pytest.raises(InputError, match=f"^sampled pair {first} is bad$"):
        verify_iso(method_c_pair().iso, PAIRS, SEED)


def test_an_error_in_the_parents_chunk_kills_the_children(workers, monkeypatch):
    parent = os.getpid()

    def fail_here_stall_there(index):
        if os.getpid() == parent:
            raise_input_error(index)
        time.sleep(30)

    workers(2)
    failing_child_seed(monkeypatch, {0, 200}, fail_here_stall_there)
    start = time.monotonic()
    with pytest.raises(InputError, match="^sampled pair 0 is bad$"):
        verify_iso(method_c_pair().iso, PAIRS, SEED)
    assert time.monotonic() - start < 10


def test_child_input_error_exits_two_with_one_line(workers, monkeypatch, tmp_path, capsys):
    workers(2)
    failing_child_seed(monkeypatch, {300}, raise_input_error)
    argv = ["witness", "method-c", "--samples", str(PAIRS), "--output", str(tmp_path / "w.json")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: sampled pair 300 is bad\n"
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("k", [1, 2])
def test_sampler_fault_exits_three_with_one_line(k, workers, monkeypatch, tmp_path, capsys):
    # a sampled non-member is the sampler's fault, not the input's: exit 3, not 2
    sample = FiniteQuotientGroup.sample
    bad_seed = twists.child_seed(SEED, 2 * 300)
    v7 = rational_place(7)

    def faulty(self, seed):
        out = sample(self, seed)
        if seed == bad_seed:
            i = self.place_index(v7)  # P_(1,3) at p7 has no (1, 0) entry
            out = out[:i] + (elementary(4, 1, 0, 1, self.rings[i]),) + out[i + 1 :]
        return out

    monkeypatch.setattr(FiniteQuotientGroup, "sample", faulty)
    forks = workers(k)
    argv = ["witness", "method-b", "--samples", str(PAIRS), "--seed", str(SEED)]
    assert main(argv + ["--output", str(tmp_path / "w.json")]) == 3
    assert len(forks) == k - 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: pair 300: apply needs a member of the source quotient\n"
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("how", ["killed", "silent exit"])
def test_child_without_a_result_fails_the_call(how, workers, monkeypatch):
    parent = os.getpid()

    def die(index):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)

    workers(2)
    failing_child_seed(monkeypatch, {300}, die)
    with pytest.raises(RuntimeError, match="^the worker for pairs 200..399 ended without a result"):
        verify_iso(method_c_pair().iso, PAIRS, SEED)


def test_selftest_lines_are_printed_once_through_a_pipe():
    # Children must leave by os._exit: a normal exit would flush the copy of
    # the parent's stdout buffer that each child inherits.
    code = (
        "import sys; from congwit import cli, twists; "
        f"twists.usable_cpus = lambda: [{CPU}, {CPU}]; "
        "sys.exit(cli.main(['selftest', '--samples', '300']))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(congwit.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # a pipe is then block-buffered
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [words[0] for words in lines] == ["ok"] * 7
    assert len({words[1] for words in lines}) == 7 and lines[-1][1] == "preset-s16"
