"""The benchmark's layer tracer (bench/spans.py) still fits the package.

``Tracer.install_layers`` wraps names that ``tamperstore.protocol`` binds
from its layers, and class attributes of the layers themselves, by name;
a rename in the package breaks the traced benchmark run.  This test loads
the tracer from its file without changing it, traces one store ->
retrieve session at params A and checks that every wrapped attribute
existed, was called through its wrapper, and is restored afterwards.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tamperstore import mac, protocol, qsim
from tamperstore.experiments import parse_dist
from tamperstore.params import derive_params
from tamperstore.protocol import ProtocolInstance
from tamperstore.randomizer import example1_code

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# layer spans every honest session at params A opens (beta0 = 0: no noise)
SESSION_SPANS = {
    "randomizer.compress", "randomizer.randomize", "randomizer.derandomize",
    "randomizer.decompress", "qsim.trap_layout", "qsim.prepare", "qsim.measure",
    "mac.tag", "mac.verify", "protocol.one_time_pad", "linear_code.syn",
    "linear_code.syn_dec", "bits.convert",
}


@pytest.fixture(scope="module")
def spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_layer(spans_module):
    instance = ProtocolInstance.derive(0.05, 0.0, 4, example1_code(12))
    rng = np.random.default_rng(0)
    message = int(parse_dist("example1:12").sample(rng))
    tracer = spans_module.Tracer()
    try:
        tracer.install_layers()  # a missing attribute raises KeyError here
        patched = list(tracer._patches)
        tracer.session = 0
        bundle, secrets = instance.store(message, rng)
        out = instance.retrieve(bundle, secrets, rng)
        tracer.session = 1
        derive_params(0.05, 0.0, 4, ell0=13)  # params are validated when made, not per session
    finally:
        left = tracer.uninstall()
    assert left == []
    assert (out.omega, out.message) == (1, message)
    assert {attr for owner, attr, _ in patched if owner is protocol} == set(
        spans_module._PROTOCOL_NAMES
    )
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    assert protocol.measure is qsim.measure and protocol.prepare is qsim.prepare
    assert protocol.tag is mac.tag and protocol.verify is mac.verify
    assert (qsim.TrapLayout, "random") in {(owner, attr) for owner, attr, _ in patched}
    assert SESSION_SPANS <= {name for name, *_, session in tracer.spans if session == 0}
    assert {name for name, *_, session in tracer.spans if session == 1} == {"params.validate"}
