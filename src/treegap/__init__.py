"""Gap and negative-type calculations for finite metric trees.

The closed-form route (gamma_T, generic_algorithm, pruning) and the
numerical route (oracle minimizers, eigenvalue verdicts) are kept
independent so each can audit the other.

Each module's ``__all__`` is the one list of its public names; the
package republishes them all.
"""

from . import errors, generic, metric, negtype, oracle, pruning, simplex, tree, treeio
from .errors import *
from .generic import *
from .metric import *
from .negtype import *
from .oracle import *
from .pruning import *
from .simplex import *
from .tree import *
from .treeio import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += generic.__all__
__all__ += metric.__all__
__all__ += negtype.__all__
__all__ += oracle.__all__
__all__ += pruning.__all__
__all__ += simplex.__all__
__all__ += tree.__all__
__all__ += treeio.__all__
