"""Solve certificates: issuance, checksums, round trips, verified mode."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    CertificationError,
    GUARANTEE_FACTOR,
    Schedule,
    SolveCertificate,
    certify_result,
    instance_fingerprint,
)
from repro.core.errors import InvalidArtifactError
from repro.core.solver import ISEConfig, solve_ise
from repro.instances import mixed_instance
from repro.testing import FaultPlan, inject_ise_corruption


@pytest.fixture(scope="module")
def instance():
    return mixed_instance(10, 2, 10.0, seed=3).instance


@pytest.fixture(scope="module")
def verified(instance):
    return solve_ise(instance, ISEConfig(verify=True))


def _dropped_placement(result):
    broken = Schedule(
        calibrations=result.schedule.calibrations,
        placements=result.schedule.placements[:-1],
        speed=result.schedule.speed,
    )
    return dataclasses.replace(result, schedule=broken)


class TestInstanceFingerprint:
    def test_stable_across_calls(self, instance) -> None:
        assert instance_fingerprint(instance) == instance_fingerprint(instance)

    def test_sensitive_to_content(self, instance) -> None:
        other = mixed_instance(10, 2, 10.0, seed=4).instance
        assert instance_fingerprint(instance) != instance_fingerprint(other)


class TestCertifyResult:
    def test_valid_result_certifies_ok(self, instance, verified) -> None:
        cert = certify_result(instance, verified)
        assert cert.ok and cert.valid
        assert cert.violations == 0
        assert cert.instance == instance_fingerprint(instance)
        assert cert.calibrations == verified.num_calibrations
        assert cert.guarantee_factor == pytest.approx(GUARANTEE_FACTOR)
        assert cert.verify_checksum()

    def test_corrupt_result_certifies_invalid(self, instance, verified) -> None:
        cert = certify_result(instance, _dropped_placement(verified))
        assert not cert.ok
        assert cert.violations >= 1
        assert cert.violation_detail
        assert cert.verify_checksum()  # the verdict itself is intact

    def test_issuing_never_raises_on_invalid(self, instance, verified) -> None:
        # Enforcement is the caller's job; certify_result only records.
        certify_result(instance, _dropped_placement(verified))


class TestRoundTrip:
    def test_to_from_dict(self, instance, verified) -> None:
        cert = certify_result(instance, verified)
        assert SolveCertificate.from_dict(cert.to_dict()) == cert

    def test_tampered_payload_rejected(self, instance, verified) -> None:
        data = certify_result(instance, verified).to_dict()
        data["calibrations"] = data["calibrations"] - 1
        with pytest.raises(InvalidArtifactError, match="checksum"):
            SolveCertificate.from_dict(data)

    def test_flipped_verdict_rejected(self, instance, verified) -> None:
        data = certify_result(instance, _dropped_placement(verified)).to_dict()
        data["valid"] = True  # forge an acquittal
        with pytest.raises(InvalidArtifactError, match="checksum"):
            SolveCertificate.from_dict(data)

    def test_malformed_payload_rejected(self) -> None:
        with pytest.raises(InvalidArtifactError, match="malformed"):
            SolveCertificate.from_dict({"version": 1})

    def test_summary_and_describe(self, instance, verified) -> None:
        cert = certify_result(instance, verified)
        summary = cert.summary()
        assert summary["valid"] is True
        assert summary["checksum"] == cert.checksum
        assert "VALID" in cert.describe()


class TestVerifiedMode:
    def test_verify_attaches_certificate(self, instance, verified) -> None:
        assert verified.certificate is not None
        assert verified.certificate.ok
        assert verified.certificate.instance == instance_fingerprint(instance)
        assert "certify" in verified.wall_times

    def test_certify_leaves_the_input_result_untouched(self, instance) -> None:
        from repro.core.solver import ISESolver

        result = solve_ise(instance, ISEConfig())
        before = dict(result.wall_times)
        certified = ISESolver(ISEConfig(verify=True))._certified(instance, result)
        assert result.wall_times == before
        assert "certify" not in result.wall_times
        assert "certify" in certified.wall_times

    def test_default_mode_has_no_certificate(self, instance) -> None:
        result = solve_ise(instance, ISEConfig())
        assert result.certificate is None

    def test_corruption_quarantined_behind_typed_error(self, instance) -> None:
        with inject_ise_corruption(FaultPlan("garbage")):
            with pytest.raises(CertificationError) as excinfo:
                solve_ise(instance, ISEConfig(verify=True))
        cert = excinfo.value.certificate
        assert cert is not None and not cert.valid
        assert cert.verify_checksum()

    def test_unverified_mode_lets_the_same_corruption_escape(
        self, instance
    ) -> None:
        # The contrast case: without verify, the corrupted result reaches
        # the caller — which is exactly why verified mode exists.
        with inject_ise_corruption(FaultPlan("garbage")):
            result = solve_ise(instance, ISEConfig())
        cert = certify_result(instance, result)
        assert not cert.ok
