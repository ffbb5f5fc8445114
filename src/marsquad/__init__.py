"""Simulation and control toolkit for a coaxial octorotor on Mars.

Modules:
    params        atmosphere profiles, vehicle constants, feasibility checks
    dynamics      nonlinear rigid-body model and rotor allocation
    linmodel      near-hover linear model and exact discretization
    mpc           condensed predictive controller with a box-constrained QP
    pid           cascaded PID baseline controller
    trajectories  reference generators over time arrays (setpoint, helix, square)
    simulator     RK4 closed loop, disturbances, logging, metrics
    config        strict scenario-file parsing
    cli           run / validate entry points
    scenarios     shipped experiment definitions
"""

from .params import (EARTH, MARS, EnvParams, VehicleParams, calibrate_thrust_coeff,
                     check_rotor_feasible, hover_speed, hover_thrust,
                     mach_from_velocity, speed_of_sound, tip_mach)
from .dynamics import (AllocationInfeasible, AllocationSaturated, Wrench, allocate,
                       hover_command, make_state, mixer_matrix,
                       state_derivative, wrench_from_rotors)
from .linmodel import LinearModel, discretize, linearize_hover, numeric_jacobian
from .mpc import MpcConfig, MpcController, build_cost, build_prediction, mpc_step, solve_qp
from .pid import PidController, PidGains, pid_step
from .simulator import (Disturbance, Metrics, NumericalDivergence, Pulse, SimLog,
                        compute_metrics, rk4_step, run_closed_loop)
from .trajectories import constant_ref, helix_ref, ref_window, square_ref

__version__ = "0.1.0"
