"""Exception types shared across the package."""


class UpgradeSimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDescriptionError(UpgradeSimError):
    """A component description violates one of its invariants."""


class DuplicateComponentError(UpgradeSimError):
    """A component id is already registered with different content."""


class MissingCatalogEntryError(UpgradeSimError):
    """A change references a product/version absent from the catalog."""


class InvalidRequestError(UpgradeSimError):
    """An upgrade request fails validation."""


class ChangeSetCompletedError(UpgradeSimError):
    """Undo was requested for a change set that already completed."""


class UnknownResourceError(UpgradeSimError):
    """A schedule or query references a resource id that does not exist."""


class UnknownTenantError(UpgradeSimError):
    """A scaling event references an unknown tenant."""


class UnknownHostError(UpgradeSimError):
    """An event references an unknown host."""


class EmptyBatchError(UpgradeSimError):
    """A budget computation was asked for an empty batch."""


class InconsistentConfigError(UpgradeSimError):
    """Cluster configuration has a dangling reference."""


class EvacuationInfeasibleError(UpgradeSimError):
    """VMs of a host batch cannot be placed elsewhere."""


class ScenarioError(UpgradeSimError):
    """Scenario file failed to parse or validate; message carries the path."""


class SimulationInvariantError(UpgradeSimError):
    """The simulator detected a state its invariants forbid (internal bug)."""
