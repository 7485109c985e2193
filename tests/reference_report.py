"""Report oracles: the version 1 fit-report layout, and the report builder
that ``fit_chip`` replaced.

Before version 2, a report also held ``histograms``: an 8-bin histogram of
each single-log junction parameter (a, tau, log_tau, b), or an empty object
when no junction had a single-log fit.  Its fits held no ``stop_reason``.
``v1_report`` gives a report's JSON value in that layout, as the package
wrote it, so that tests can require ``read_report`` to read such files.  It
starts from the package's own encoding, ``dataio._report_to_dict``;
``v1_histogram`` restates the binning that version 1 used.

``build_fit_report`` is the function that assembled a ``FitReport`` from a
dataset and its chip fit before ``fit_chip`` returned the report itself.
It is kept as it was, docstring included.  Its ``chip_fit`` is anything
with the fields of the former ``ChipFitResult`` (``per_junction``,
``average``, ``r0_ohm``, ``average_r0_ohm``, ``skipped``, and
``aggregate``, the ``aggregate_series`` rows of the average fit), so that
tests can require equal dataset-derived fields from ``fit_chip``.
"""

import math
from typing import Mapping

import numpy as np

from jjaging import DAY_S, ENV_LABELS, AgingParams, ChipDataset, FitReport
from jjaging.dataio import _report_to_dict
from jjaging.ensemble import FLAG_OK

_V1_FIELDS = {
    "a": lambda p: p.a,
    "tau": lambda p: p.tau_s,
    "log_tau": lambda p: math.log(p.tau_s),
    "b": lambda p: p.b,
}


def v1_histogram(results, field, n_bins):
    """``(counts, edges)`` of one parameter over single-log fit results.

    log_tau bins are uniform in ln(tau).  Values too close for n_bins + 1
    distinct edges (equal ones included) get a range widened by 0.5 each way.
    """
    arr = np.asarray([_V1_FIELDS[field](res.params) for res in results])
    vmin, vmax = float(arr.min()), float(arr.max())
    if not (np.diff(np.linspace(vmin, vmax, n_bins + 1)) > 0).all():
        vmin, vmax = vmin - 0.5, vmax + 0.5
    return np.histogram(arr, bins=n_bins, range=(vmin, vmax))


def v1_report(report) -> dict:
    """The JSON value a version 1 writer gave ``report`` (a ``FitReport``)."""
    d = _report_to_dict(report)
    single = [r for r in report.per_junction.values() if isinstance(r.params, AgingParams)]
    histograms = {}
    for name in _V1_FIELDS if single else ():
        counts, edges = v1_histogram(single, name, n_bins=8)
        histograms[name] = {"counts": [int(c) for c in counts],
                            "edges": [float(e) for e in edges]}
    for fit in (d["average"], *d["per_junction"].values()):
        del fit["stop_reason"]
    d.update(schema_version=1, histograms=histograms)
    return d


def build_fit_report(ds: ChipDataset, chip_fit, provenance: Mapping) -> FitReport:
    """Assemble a FitReport from a dataset and its ChipFitResult, whose
    aggregate rows give the CV series."""
    cv_series = tuple((t / DAY_S, None if math.isnan(cv) else cv, n)
                      for t, _, cv, n in chip_fit.aggregate)
    ok_rows = np.flatnonzero(ds.flag == FLAG_OK)
    last = ok_rows[np.argmax(ds.t_s[ok_rows])]   # first row at the latest time
    return FitReport(
        chip_id=ds.chip_id,
        junction_ids=tuple(ds.junction_ids()),
        per_junction=dict(chip_fit.per_junction),
        average=chip_fit.average,
        r0_ohm=dict(chip_fit.r0_ohm),
        average_r0_ohm=chip_fit.average_r0_ohm,
        cv_series=cv_series,
        skipped=dict(chip_fit.skipped),
        provenance=dict(provenance),
        last_t_s=float(ds.t_s[last]),
        last_env=ENV_LABELS[ds.env[last]],
    )
