"""Decentralized price-coordinated EV charging market simulator; the package
exports every module's ``__all__`` except the command line's."""
from .coordinator import *  # noqa: F401,F403
from .dso_agent import *  # noqa: F401,F403
from .ev_agent import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .mpc_loop import *  # noqa: F401,F403
from .scenario_io import *  # noqa: F401,F403

__version__ = "0.1.0"
