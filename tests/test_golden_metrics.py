"""Every service's ``/metrics`` scrape against the captured golden.

See ``tests/golden_metrics.py`` for the scenarios and what the capture
keeps.  Sample keys carry ``le`` bounds as numbers and values compare
as floats, so only a change in what is exported or counted fails here —
not a change in how a number is spelled.
"""

import pytest

from tests import golden_metrics

GOLDEN = golden_metrics.load()


@pytest.fixture(scope="module", params=sorted(golden_metrics.SCENARIOS))
def scrape(request):
    return request.param, golden_metrics.run_scenario(request.param)


def test_families_keep_type_and_help(scrape):
    name, summary = scrape
    assert summary["families"] == GOLDEN[name]["families"]


def test_samples_keep_names_and_labels(scrape):
    name, summary = scrape
    got, want = set(summary["samples"]), set(GOLDEN[name]["samples"])
    assert sorted(got - want) == [], "samples the golden does not have"
    assert sorted(want - got) == [], "golden samples missing"


def test_load_fixed_values(scrape):
    name, summary = scrape
    want = GOLDEN[name]["values"]
    got = {key: summary["values"].get(key) for key in want}
    assert got == want
