"""arithdeg: exact computational commutative algebra for arithmetic degrees.

Library layout:
  fields, orders, rings      exact coefficients, term orders, polynomials
  groebner                   Buchberger engine, ideal arithmetic
  modules                    module Groebner bases, syzygies, resolutions, Ext
  numerical                  binomial-basis numerical polynomials, differences
  hilbert                    Hilbert functions, dimensions, multiplicities
  monomials                  standard pairs, and the primes off them
  constructions              initial forms, gr_I as initial forms, GG
  adeg                       arithmetic degrees and the verification harness
  session, runner, corpus, cli   the text/CLI frontend
"""

from .fields import GF, QQ
from .rings import RingDescriptor, Polynomial, parse_polynomial
from .orders import DegRevLex, Lex, BlockOrder
from .groebner import (IdealHandle, buchberger, normal_form, maximal_ideal,
                       ideal_sum, ideal_product, ideal_power)
from .modules import (ModulePresentation, ChainComplex, free_resolution,
                      ext_presentation, syzygies_of, schreyer_syzygies)
from .numerical import (NumericalPoly1, NumericalPoly2, MultiplicityVector,
                        StabilizationCertificate, binom)
from .hilbert import (hilbert_value, hilbert_value_bruteforce,
                      hilbert_polynomial, h11_polynomial, dimension,
                      ee_vector, classical_multiplicity, artinian_length)
from .monomials import (StandardPair, standard_pairs, adeg_monomial,
                        decompose)
from .constructions import initial_forms_ideal, assoc_graded, gg_presentation
from .adeg import (adeg_graded, adeg_report_ext, adeg_report_monomial,
                   gmult, ladeg, verify, AdegReport, VerificationRecord)
from .session import SessionScript, parse_session
from .corpus import build_corpus

__version__ = "0.1.0"
