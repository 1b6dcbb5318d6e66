"""workbot: a mobile-manipulation workcell toolkit.

Modules
-------
cloud       tabletop point-cloud segmentation pipeline and PLY output
recognition PCA object poses and 2D/3D score fusion
rtt         2D/3D tracking and rotating-table motion estimation
kinematics  DH chains, forward kinematics and damped-least-squares IK
grasping    approach decisions and pre-grasp sampling
placement   empty-space placement planning on a segmented workstation
dwa         dynamic-window local navigation on occupancy grids
pddl        task-planning language subset: parser, grounder, planners
execution   plan execution with event-driven components and replanning
sim         deterministic scenario generators for every pipeline
cli         command-line front door over all of the above
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import WorkbotError

__all__ = ["WorkbotError", "__version__"]
