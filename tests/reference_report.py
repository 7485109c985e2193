"""The version 1 fit-report layout, kept as a test oracle.

Before version 2, a report also held ``histograms``: an 8-bin histogram of
each single-log junction parameter (a, tau, log_tau, b), or an empty object
when no junction had a single-log fit.  Its fits held no ``stop_reason``.
``v1_report`` gives a report's JSON value in that layout, as the package
wrote it, so that tests can require ``read_report`` to read such files.  It
uses only the package's public API; ``v1_histogram`` restates the binning
that version 1 used.
"""

import math

import numpy as np

from jjaging import AgingParams

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
    d = report.to_dict()
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
