"""Offline analysis (hpcprof/hpcviewer analogue), paper Section 7.2.

* :mod:`repro.analysis.merge` — combine per-thread profiles; counters sum,
  address ranges use the custom [min, max] reduction.
* :mod:`repro.analysis.analyzer` — derived metrics over the merged data:
  program/region/variable lpi_NUMA, hot-variable ranking, latency shares.
* :mod:`repro.analysis.patterns` — classify per-thread access patterns
  (blocked, staggered-overlap, uniform, irregular).
* :mod:`repro.analysis.advisor` — turn analysis into actionable NUMA
  optimization recommendations.
* :mod:`repro.analysis.views` — the three presentation views, including
  the address-centric plot of per-thread [min, max] ranges.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".merge": "MergedProfile MergedVar merge_profiles merge_ranges",
    ".io": "save_archive",
    ".postmortem": "load_archive export_heatmap_csvs",
    ".diff": "ProfileDiff VariableDelta diff_profiles",
    ".report": "full_report",
    ".analyzer": "NumaAnalysis",
    ".patterns": "AccessPattern classify_ranges",
    ".advisor": "Action Recommendation advise",
    ".views": """AddressCentricSeries address_centric_series
        address_centric_view code_centric_view data_centric_view
        first_touch_view region_table_view traffic_matrix_view""",
})
