"""Differential test: simulation vs. the live multi-process backplane.

The same deterministic scenario — N=4, K=2, hop-chain application, the
same stimulus list, one crash of the same process — runs through (a) the
discrete-event simulation harness and (b) ``repro serve`` with real OS
processes, SIGKILL, and TCP.  Both must certify clean against the
dependency oracle and commit exactly the same output set: every stimulus
tag, exactly the agreement the shared
:class:`~repro.runtime.harness.ProcessHost` and the at-least-once
delivery layer are supposed to provide.

The same scenario runs a second time with the adaptive-K controller on,
passed to serve as a plain ``SimConfig`` field through
``ServePlan.config``: sim and serve run the one shared host, so both must
still agree, and every serve worker must have run the controller.

The serve half spawns real subprocesses and takes a few seconds of wall
clock; it is the closest thing the suite has to a deployment test.
"""

import glob
import os

import pytest

from repro.app.hopchain import HopChainBehavior
from repro.backplane.coordinator import ServePlan, run_serve
from repro.backplane.loadgen import generate_stimuli
from repro.failures.injector import FailureSchedule
from repro.oracle.ingest import certify_tracer
from repro.runtime.config import SimConfig
from repro.runtime.harness import SimulationHarness

N = 4
K = 2
SEED = 7
DURATION = 60.0
RATE = 0.5
CRASH_PID = 1
CRASH_TIME = DURATION * 0.4
RESTART_DELAY = 12.0


def _stimuli():
    # Crash victims are excluded as *entry points* (an injection into a
    # down process would be dropped nondeterministically); they still
    # participate as hop destinations and as the crash subject.
    return generate_stimuli(N, SEED, DURATION, RATE, exclude={CRASH_PID})


def _tags(cert):
    return {payload["tag"] for payload in cert.committed}


@pytest.fixture(scope="module")
def expected_tags():
    return {s["payload"]["tag"] for s in _stimuli()}


def _sim_cert(**overrides):
    config = SimConfig(
        n=N, k=K, seed=SEED,
        ack_layer=True,
        retransmit_timeout=8.0,
        retransmit_window=64,
        dep_trace=True,
        check_invariants=True,
        **overrides,
    )
    harness = SimulationHarness(
        config, HopChainBehavior(),
        failures=FailureSchedule.single(CRASH_TIME, CRASH_PID),
    )
    for stimulus in _stimuli():
        harness.inject_at(stimulus["time"], stimulus["dst"],
                          dict(stimulus["payload"]))
    harness.run(DURATION)
    assert harness.metrics().violations == []
    return certify_tracer(harness.tracer, N, K)


def _serve_report(run_dir, **config):
    plan = ServePlan(
        n=N, k=K, seed=SEED,
        behavior="hopchain",
        timescale=0.02,
        duration=DURATION,
        rate=RATE,
        crashes=[(CRASH_TIME, CRASH_PID)],
        restart_delay=RESTART_DELAY,
        run_dir=run_dir,
        stimuli=_stimuli(),
        config=config,
    )
    return run_serve(plan)


@pytest.fixture(scope="module")
def sim_cert():
    return _sim_cert()


@pytest.fixture(scope="module")
def serve_report(tmp_path_factory):
    return _serve_report(str(tmp_path_factory.mktemp("serve-diff")))


class TestDifferential:
    def test_sim_certifies_clean(self, sim_cert):
        assert sim_cert.ok, sim_cert.violations

    def test_sim_commits_every_stimulus(self, sim_cert, expected_tags):
        assert _tags(sim_cert) == expected_tags

    def test_serve_certifies_clean(self, serve_report):
        assert serve_report.ok, serve_report.violations

    def test_serve_commits_every_stimulus(self, serve_report, expected_tags):
        assert _tags(serve_report.certification) == expected_tags

    def test_serve_really_crashed_and_recovered(self, serve_report):
        cert = serve_report.certification
        assert cert.counts["recoveries"] >= 1

    def test_same_committed_output_set(self, sim_cert, serve_report,
                                       expected_tags):
        # The headline agreement: both drivers commit exactly the same
        # outputs for the same scenario — all of them.
        assert _tags(sim_cert) == _tags(serve_report.certification) \
            == expected_tags


@pytest.fixture(scope="module")
def adaptive_sim_cert():
    return _sim_cert(adaptive_k=True)


@pytest.fixture(scope="module")
def adaptive_serve_report(tmp_path_factory):
    return _serve_report(str(tmp_path_factory.mktemp("serve-diff-adaptive")),
                         adaptive_k=True)


class TestAdaptiveKDifferential:
    """The same scenario with the adaptive-K controller on in both drivers."""

    def test_both_certify_clean(self, adaptive_sim_cert, adaptive_serve_report):
        assert adaptive_sim_cert.ok, adaptive_sim_cert.violations
        assert adaptive_serve_report.ok, adaptive_serve_report.violations

    def test_same_full_committed_output_set(self, adaptive_sim_cert,
                                            adaptive_serve_report,
                                            expected_tags):
        assert _tags(adaptive_sim_cert) \
            == _tags(adaptive_serve_report.certification) == expected_tags

    def test_every_serve_worker_ran_the_controller(self, adaptive_serve_report):
        paths = sorted(glob.glob(
            os.path.join(adaptive_serve_report.run_dir, "trace", "*.jsonl")))
        assert len(paths) == N
        for path in paths:
            # Substring match: a SIGKILLed worker may leave a torn line.
            with open(path, encoding="utf-8") as fh:
                ticks = sum(1 for line in fh if '"control.k"' in line)
            assert ticks >= 1, f"{path}: no control.k record"
