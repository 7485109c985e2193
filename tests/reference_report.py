"""The version 1 fit-report layout, kept as a test oracle.

Before version 2, a report also held ``histograms``: an 8-bin
``parameter_histogram`` of each single-log junction parameter (a, tau,
log_tau, b), or an empty object when no junction had a single-log fit.
Its fits held no ``stop_reason``.  ``v1_report`` gives a report's JSON
value in that layout, as the package wrote it, so that tests can require
``read_report`` to read such files.  It uses only the package's public API.
"""

from jjaging import AgingParams, parameter_histogram


def v1_report(report) -> dict:
    """The JSON value a version 1 writer gave ``report`` (a ``FitReport``)."""
    d = report.to_dict()
    single = [r for r in report.per_junction.values() if isinstance(r.params, AgingParams)]
    histograms = {}
    for name in ("a", "tau", "log_tau", "b") if single else ():
        counts, edges = parameter_histogram(single, name, n_bins=8)
        histograms[name] = {"counts": [int(c) for c in counts],
                            "edges": [float(e) for e in edges]}
    for fit in (d["average"], *d["per_junction"].values()):
        del fit["stop_reason"]
    d.update(schema_version=1, histograms=histograms)
    return d
