"""Recording: how a :class:`~repro.machine.context.Machine` stores the
operations it observes.

:class:`~repro.record.columnar.ColumnarTrace` captures each operation
as references to its key arrays and analyses all pending operations in
vectorised batches (:func:`~repro.record.columnar.analyze_segments`) at
freeze/compaction time; see docs/performance.md.
"""

from __future__ import annotations

from repro.record.columnar import ColumnarTrace, analyze_segments

__all__ = ["ColumnarTrace", "analyze_segments"]
