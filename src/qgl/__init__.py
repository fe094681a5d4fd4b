"""Exact symbolic engine for the quantum general linear supergroup U_q(gl(m,n)).

Subpackages:
    errors      -- DomainError (exit 3) and its subclasses, ExprSyntaxError (exit 2)
    scalars     -- exact scalar tower: Z[q,q^-1], Q(q), Q(eta)
    rootdata    -- root/weight combinatorics of gl(m,n)
    pbwcore     -- PBW elements and straightening multiplication
    relations   -- the defining-relation catalog that selftest runs
    expr        -- expression parser / canonical printer
    hopf        -- coproduct, counit, antipode, signed tensor square
    braid       -- braid-group operators on even simple roots
    linalg      -- exact linear algebra on one elimination routine, Echelon
    repmod      -- finite-dimensional weight modules
    rootofunity -- specialization at roots of unity and q -> 1
    cli         -- command-line front end
"""

__version__ = "0.1.0"
