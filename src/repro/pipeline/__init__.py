"""End-to-end experiment pipeline.

Wires the substrates together into the paper's workflows:

- :mod:`repro.pipeline.collect` — run + profile an app at a core count,
  trace the slowest task (or all / selected ranks) against a target
  hierarchy, producing an application signature.
- :mod:`repro.pipeline.predict` — PMaC prediction: signature x machine
  profile -> replayed runtime; and the ground-truth "actually run it"
  path.
- :mod:`repro.pipeline.experiment` — the paper's experiments (Table I
  protocol: train on small counts, extrapolate, predict, compare with
  collected-trace prediction and measured runtime).
- :mod:`repro.pipeline.report` — table rendering of experiment results.
- :mod:`repro.pipeline.dag` — the workflows above as a crash-consistent
  content-addressed DAG with incremental recomputation (``repro dag``).
"""

from repro.pipeline.collect import (
    CollectionSettings,
    collect_signature,
    collect_signatures,
)
from repro.pipeline.dag import (
    Dag,
    DagRunResult,
    DagStats,
    Node,
    NodeStatus,
    SweepSpec,
    build_dag,
    dag_status,
    node_key,
    run_dag,
)
from repro.pipeline.predict import (
    PredictionResult,
    measure_runtime,
    predict_runtime,
)
from repro.pipeline.experiment import (
    Table1Config,
    Table1Row,
    Table1Result,
    collect_training_traces,
    run_table1,
)
from repro.pipeline.report import table1_report

__all__ = [
    "Dag",
    "DagRunResult",
    "DagStats",
    "Node",
    "NodeStatus",
    "SweepSpec",
    "build_dag",
    "dag_status",
    "node_key",
    "run_dag",
    "CollectionSettings",
    "collect_signature",
    "collect_signatures",
    "PredictionResult",
    "predict_runtime",
    "measure_runtime",
    "Table1Config",
    "Table1Row",
    "Table1Result",
    "run_table1",
    "collect_training_traces",
    "table1_report",
]
