"""faultcast: failure prediction for multi-tier distributed systems.

The offline half learns per-KPI seasonal tolerance bands and a lag-based
causality graph from weeks of healthy monitoring data.  The online half flags
anomalous KPIs per five-minute interval, classifies the sliding window of
anomalies against known failure signatures, and raises general then
failure-specific alerts ahead of the actual failure.

The package root exports nothing: import each name from its module
(``faultcast.sim``, ``faultcast.baseline``, ``faultcast.detect``, ...), so an
import loads only that module and what it imports.
"""
