"""The structured error surface: one fixture table of invalid specs,
asserted byte-identical across both transports — the HTTP 400 JSON body
and the CLI — against the library's own eager-validation message."""

import pytest

from repro.cli import main
from repro.scenario import Scenario
from repro.service import ServiceError

#: (spec, fragment) — the fragment pins *which* validation fired; the
#: tests below assert the full message is identical everywhere.
INVALID_SPECS = [
    ("margulis(0) | decay", "side must be positive"),
    ("chain(0, 3) | decay", "s must be positive"),
    (
        "hypercube(3) | decay | erasure(0.1) | erasure(0.9)",
        "duplicate channel segment",
    ),
    ("hypercube(3) | decay | trials=0", "trials must be >= 1"),
    ("hypercube(3) | decay | seed=-1", "seed must be a non-negative integer"),
    (
        "hypercube(3) | decay | erasure(1.5)",
        "erasure probability must lie in [0, 1]",
    ),
    ("hypercube(3) | decay | trials=soon", "must be an integer"),
    ("hypercube(3) | decay | backend=torch", "array-backend shim was removed"),
]


def canonical_message(spec: str) -> str:
    """What ``Scenario.from_string`` itself says about the spec."""
    with pytest.raises((ValueError, TypeError)) as err:
        Scenario.from_string(spec)
    return str(err.value)


@pytest.mark.parametrize("spec,fragment", INVALID_SPECS)
def test_http_error_body_carries_the_validation_message(
    client, spec, fragment
):
    expected = canonical_message(spec)
    assert fragment in expected  # the table stays honest
    with pytest.raises(ServiceError) as err:
        client.submit(spec)
    assert err.value.status == 400
    assert str(err.value) == expected
    assert err.value.payload["error"] == expected
    assert err.value.payload["spec"] == spec


@pytest.mark.parametrize("spec,fragment", INVALID_SPECS)
def test_cli_submit_prints_the_same_message(
    server, capsys, spec, fragment
):
    expected = canonical_message(spec)
    code = main(["submit", spec, "--url", server.url])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.strip() == f"error: {expected}"


def test_nothing_is_enqueued_for_invalid_specs(client, queue):
    for spec, _ in INVALID_SPECS:
        with pytest.raises(ServiceError):
            client.submit(spec)
    assert queue.depth() == 0
    assert client.jobs() == []


def test_unreachable_service_is_a_clean_client_error():
    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServiceError, match="cannot reach"):
        client.healthz()
