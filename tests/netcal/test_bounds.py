"""The network-calculus envelope as an independent check of verifier
counterexamples: every trace the CCAC verifier produces must serve
within the waste-adjusted rate-latency envelope of its link."""

import pytest

from repro.ccac import parse_environment
from repro.core import CcacVerifier, constant_cwnd
from repro.netcal.bounds import check_service_within_envelope


@pytest.mark.parametrize("worst_case", [False, True])
@pytest.mark.parametrize("env", [None, "jitter:jitter=2"])
def test_counterexample_service_within_envelope(fast_cfg, env, worst_case):
    environments = None if env is None else [parse_environment(env)]
    verifier = CcacVerifier(fast_cfg, environments=environments)
    res = verifier.find_counterexample(
        constant_cwnd(1, fast_cfg.history), worst_case=worst_case
    )
    assert not res.verified
    trace = res.counterexample
    expected_jitter = fast_cfg.jitter if env is None else 2
    assert trace.cfg.jitter == expected_jitter
    assert check_service_within_envelope(
        trace.S, trace.W, trace.cfg.C, trace.cfg.jitter
    ) == []
