"""The library names that the benchmark harness in `perfbench/` imports or
wraps; a wrapped name that does not resolve shows there only as an absent wrap."""

import importlib
from itertools import islice

import pytest

from iet3 import OrbitCoder, code_orbit, make_field, make_spec, parse_quadnum

NAMES = [
    # imported from the package
    "iet3:decide", "iet3:synthesize", "iet3:make_field", "iet3:make_spec",
    "iet3:non_degenerate", "iet3:parse_quadnum", "iet3:sqrt_in_field", "iet3:yasutomi",
    "iet3:check_block_starts", "iet3:sturmian_images_match", "iet3:sturmian_word",
    "iet3:corollary_crosscheck", "iet3:complexity", "iet3:step", "iet3:inverse_step",
    "iet3:CapSetConfig", "iet3:generate", "iet3:point_value", "iet3:lattice_filter",
    "iet3:OrbitCoder",
    # wrapped in place by the harness's tracer
    "iet3.qfield:sign_of_surd", "iet3.qfield:QuadNum.sign",
    "iet3.quadunit:class_fixing_power", "iet3.iet:OrbitCoder.forward",
    "iet3.iet:OrbitCoder.backward", "iet3.iet:step", "iet3.iet:inverse_step",
    "iet3.invariance:decide", "iet3.invariance:synthesize",
    "iet3.invariance:check_block_starts", "iet3.substitution:Substitution.verify_fixed_point",
    "iet3.substitution:Substitution.check_eigenvector", "iet3.substitution:complexity",
    "iet3.sturmian:sturmian_images_match", "iet3.sturmian:sturmian_word",
    "iet3.capset:generate", "iet3.cli:main", "iet3.cli:_print_report", "iet3.cli:report_to_json",
]


@pytest.mark.parametrize("name", NAMES)
def test_name_resolves(name):
    module, _, attr = name.partition(":")
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_streams_match_code_orbit():
    """`forward` and `backward`, which only the harness calls, stream the
    letters of `code_orbit`, past the first chunk of 64."""
    f = make_field(1, 2, -1, 1)
    spec = make_spec(f.eps(), parse_quadnum("1/2+1/2*e", f), parse_quadnum("-1/2*e", f))
    coder = OrbitCoder(spec)
    assert "".join(islice(coder.forward(), 300)) == code_orbit(spec, 0, 300)
    assert "".join(islice(coder.backward(), 300)) == code_orbit(spec, -300, 0)[::-1]
