"""The package's record classes: how they are built, read and compared.

Ten are named tuples; ``Partition``, ``_NodeStates`` and ``_PairingTable``
are plain read-only classes.  Each builds by position and by keyword with
its fields in one fixed order, stores the values it is given, and refuses
every assignment.  What a ``Partition`` checks is tested with the
partitions, in ``test_blocksystem.py``.
"""

import numpy as np
import pytest

from measureode.coefficients import Check, ValidationReport
from measureode.blocksystem import MomentVectors
from measureode.fileio import ParsedProblem
from measureode.fuzz import Instance
from measureode.partition import JumpReport, Partition
from measureode.propagation import _NodeStates, _PairingTable
from measureode.relations import K0Element, OrthogonalityCertificate, PairingReport
from measureode.solutions import SolutionSet

# Each record class and its fields, in constructor order.
RECORDS = {
    JumpReport: ("position", "sigma_min", "sigma_max", "status"),
    Partition: ("window", "interior", "singular"),
    MomentVectors: ("f", "jump_moments", "integrals", "last_integral", "rhs", "functional",
                    "table", "states"),
    Check: ("name", "measured", "tolerance", "passed"),
    ValidationReport: ("checks",),
    _NodeStates: ("nodes", "generators", "rights", "lefts", "starts"),
    _PairingTable: ("terms", "left_rows", "right_rows", "rows", "atoms", "splits", "intervals",
                    "square"),
    ParsedProblem: ("problem", "f", "window", "tolerances", "forced_points", "raw"),
    Instance: ("problem", "window", "f", "extra_points"),
    K0Element: ("solution", "w_norm", "degenerate"),
    OrthogonalityCertificate: ("kernel_vector", "solution", "pairing", "moment_pairing",
                               "projection_norm"),
    PairingReport: ("lhs", "rhs", "defect", "boundary_start", "boundary_end"),
    SolutionSet: ("consistent", "residual", "bound", "coefficients", "particular",
                  "kernel_coefficients", "kernel_basis", "propagator_defect"),
}


def _values(cls) -> list:
    """Distinct values to build ``cls`` from; a partition's must pass its checks."""
    if cls is Partition:
        return [(0.0, 1.0), np.array([0.25, 0.5]), np.array([True, False])]
    return [object() for _ in RECORDS[cls]]


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_build_by_position_and_keyword_and_refuse_assignment(cls):
    names = RECORDS[cls]
    if issubclass(cls, tuple):
        assert cls._fields == names
    values = _values(cls)
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert all(getattr(record, name) is value for name, value in zip(names, values))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


@pytest.mark.parametrize("cls", [_NodeStates, _PairingTable], ids=lambda cls: cls.__name__)
def test_node_states_and_pairing_tables_compare_and_hash_by_identity(cls):
    values = _values(cls)
    first, second = cls(*values), cls(*values)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2

