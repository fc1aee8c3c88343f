"""Finite noncommutative Stone duality between restriction semigroups and
their germ categories, with the commutative (generalized Boolean algebra)
case included.

Everything is table-driven and exhaustively verified; sizes stay small
enough that no approximation is ever needed.
"""

from .errors import (InputError, InvariantViolation, MathFail, SdlError,
                     TooLarge)
from .report import Report, format_witness
from .gba import (FinGBA, PrimeCharacter, atoms, basic_set, char_eval,
                  make_gba, verify_stone_duality)
from .algebra import (AlgebraClassification, BiUnaryAlgebra, CosupportResult,
                      MorphismVerdict, SemigroupMorphism, bd_subalgebra,
                      check_morphism, classify, compatible,
                      deterministic_sets, has_local_units, infer_cosupport,
                      iso_algebras, join, join_all, make_algebra, meet,
                      partial_isomorphisms, projection_gba, projections)
from .category import (Cofunctor, CoveringFunctor, FinCat,
                       category_signature, check_cofunctor,
                       cofunctor_to_covering, cofunctor_to_morphism,
                       compose_cofunctors, covering_to_cofunctor,
                       enumerate_slices, identity_cofunctor, is_groupoid,
                       iso_categories, make_category, predicted_slice_count,
                       semigroup_slices, slice_semigroup)
from .duality import (GermCategory, counit_epsilon, germ_category,
                      morphism_to_cofunctor, theta, unit_eta,
                      verify_adjunction, verify_birestriction_equivalence,
                      verify_groupoidal, with_inferred_plus)
from .zoo import (corpus_categories, corpus_semigroups, enumerate_categories,
                  gen_free_arrow, gen_i, gen_pair_groupoid, gen_pt,
                  gen_triangular, zoo_categories, zoo_semigroups)
from .io import (CofunctorFile, MorphismFile, dumps_canonical,
                 instance_to_dict, load_instance, save_instance)

__version__ = "0.1.0"
