"""Exception types shared across the package."""


class BizooError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(BizooError):
    """Field or operator used with the wrong DOF space."""


class EmptyDomainError(BizooError):
    """The mask, or a cell ring an operator needs, is empty."""


class StencilReachError(BizooError):
    """A stencil needs cells the mask does not provide."""


class CompatibilityError(BizooError):
    """Right-hand side violates a Fredholm compatibility condition."""

    def __init__(self, message, defect=None, subspace=None):
        super().__init__(message)
        self.defect = defect
        self.subspace = subspace


class ForbiddenCompositionError(BizooError):
    """Requested composition of Laplacian inverses is not well posed."""


class ConvergenceFailure(BizooError):
    """A solve missed its residual target: refinement stalled or CG ran out."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class ExpressionError(BizooError):
    """Parse or evaluation failure in a right-hand-side expression."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
