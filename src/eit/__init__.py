"""Channel-split vision transformer at desk scale, with diagnostics."""

from . import costs, gradcheck, model, tensor
