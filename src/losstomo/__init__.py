"""Link-level loss estimation for multicast networks from end-to-end probes."""

from .bench import ExperimentGrid, ExperimentReport, GridCell, mse, parse_grid, run_grid
from .estimators import EstimateResult, le_xi, mvwa, nem, pcem, project_to_theta_star
from .likelihood import (LogLikValue, loglik_psi, loglik_theta, loglik_xi,
                         observed_information, per_probe_loglik)
from .params import (parse_rates, psi_to_xi, serialize_rates, theta_to_xi, xi_membership,
                     xi_to_psi, xi_to_theta)
from .simulator import SimConfig, sample_theta, simulate
from .statistics import (DataError, InternalView, PatternTable, RegularityReport,
                         internal_states, internal_views, parse_data, regularity_report,
                         serialize_data)
from .topology import (GeneralNetwork, LinkRecord, MulticastTree, TopologyError,
                       parse_topology, serialize_topology)

__version__ = "0.1.0"
