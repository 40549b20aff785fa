"""Dual-certified approximation algorithms for cut-based connectivity problems.

The package solves four related problems -- minimum 2-edge-connected spanning
subgraph (2ECS), minimum strongly connected spanning subgraph (MSCS), dual
power assignment (DPA), and star strong connectivity (SSC) -- with
contraction-based approximation algorithms that emit integer dual
certificates: families of vertex cuts whose feasibility independently proves
a lower bound on the optimum.

The names below are the documented entry points. Everything else is
reached through its own module, e.g. `dualcut.perfect.LiveInstance`.
"""

from dualcut.graphs import Multigraph
from dualcut.instances import (
    DPAInstance,
    InfeasibleInstanceError,
    SSCInstance,
    Star,
    TwoECSInstance,
    check_feasible,
    dpa_to_ssc,
    mscs_to_ssc,
)
from dualcut.certificates import verify_certificate
from dualcut.advisor import Advisor, PlannedAdvisor, ScriptedAdvisor
from dualcut.twoecs import approx_2ecs
from dualcut.dpa import approx_dpa
from dualcut.ssc import approx_ssc
from dualcut.oracles import certify_exact_by_bound, exact_2ecs, exact_dpa, exact_ssc
from dualcut.generators import (
    ExpectedCosts,
    GeneratedInstance,
    gen_dpa_tight,
    gen_random_2ecs,
    gen_random_bidirected,
    gen_random_dpa,
    gen_random_ssc,
    gen_ssc_tight,
)
from dualcut.io import ParseError, parse_instance, write_instance
from dualcut.report import (
    RunCheckError,
    RunReport,
    report_from_json,
    report_to_json,
    verify_run,
)
