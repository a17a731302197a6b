"""The values of the pipeline's two named configuration axes: the escape
fixpoint engines (``--engine``) and the runtime collectors (``--gc``).

A leaf module with no imports: the CLI offers these as ``choices`` while
it builds the parser for every subcommand, so reading them must load
neither the analysis nor the runtime.  :mod:`repro.escape.engine` and
:mod:`repro.semantics.gc` own the behaviour and re-export the names.
"""

#: The engines the analysis core knows how to run.
ENGINES = ("legacy", "worklist")

#: The engine used when none is requested explicitly.
DEFAULT_ENGINE = "worklist"

#: Selectable collector names, in CLI ``--gc`` order.
COLLECTORS = ("mark-sweep", "liveness", "copying")
