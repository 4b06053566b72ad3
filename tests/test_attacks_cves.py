"""Integration tests: every CVE row against the key defense columns.

The full 8-defense sweep is the Table I test in ``tests/test_harness.py``;
here each CVE is checked against the two decisive columns (vulnerable
legacy vs JSKernel) plus targeted ablations showing WHICH policy does
the work.
"""

import pytest

from repro.attacks import create, cve_rows
from repro.attacks.expected import expected_matrix

EXPECTED = expected_matrix()


@pytest.mark.parametrize("cve_name", cve_rows())
def test_cve_triggers_on_vulnerable_legacy(cve_name):
    result = create(cve_name).run("legacy-firefox")
    assert result.success, f"{cve_name} should trigger on the vulnerable build: {result.detail}"


@pytest.mark.parametrize("cve_name", cve_rows())
def test_cve_prevented_by_jskernel(cve_name):
    result = create(cve_name).run("jskernel")
    assert result.defended, f"JSKernel should prevent {cve_name}: {result.detail}"


@pytest.mark.parametrize("cve_name", cve_rows())
def test_cve_chromezero_matches_paper(cve_name):
    result = create(cve_name).run("chromezero")
    assert result.defended == EXPECTED[cve_name]["chromezero"], result.detail


def test_lifecycle_cves_return_without_lifecycle_policy():
    """Ablation: deterministic scheduling alone does not stop the UAFs.

    (CVE-2014-3194 is excluded: the kernel stub's structural alive-check
    defends it even without any policy.)
    """
    for cve_name in ("cve-2018-5092", "cve-2014-1488"):
        result = create(cve_name).run("jskernel-nocve")
        assert result.success, f"{cve_name} should still trigger without CVE policies"


def test_stub_structure_alone_defends_post_after_terminate():
    """CVE-2014-3194 is stopped by the kernel interposition itself."""
    assert create("cve-2014-3194").run("jskernel-nocve").defended


def test_cve_policies_work_without_determinism():
    """Ablation: the CVE policies alone stop the CVEs (not the timing rows)."""
    for cve_name in ("cve-2018-5092", "cve-2013-1714", "cve-2017-7843"):
        result = create(cve_name).run("jskernel-nodet")
        assert result.defended, f"{cve_name}: {result.detail}"


def test_cve_details_identify_the_vulnerability():
    result = create("cve-2018-5092").run("legacy-chrome")
    assert "CVE-2018-5092" in result.detail


def test_information_leak_cves_report_leak_not_crash():
    for cve_name in ("cve-2017-7843", "cve-2015-7215", "cve-2013-1714"):
        result = create(cve_name).run("legacy-firefox")
        assert result.detail == "leak obtained"
