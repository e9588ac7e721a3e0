"""A standing mutation gate: every mutant in MUTANTS must be killed.

    python3 tools/mutants.py

Each row of MUTANTS names a file under src/crossbial/, an exact old text,
the new text that replaces it and the tests that must fail on the result.
For each row the tool copies src/ to a temporary directory, makes the edit
there and runs only the row's tests against the copy, one pytest process
at a time, from the root of the checkout.  pytest's plugin autoloading is
off and hypothesis's plugin is loaded by name, so other plugins installed
beside pytest neither slow a row nor change what it runs.  The tool prints
one line per row and the total time, and exits 1 when a row's old text
does not occur exactly once in its file, when a mutant survives (its
tests pass), or when pytest cannot run the tests (a test id that no
longer exists, say).  A refactor that moves code moves its mutants with
it: tests/test_tools.py checks on every run that each old text still
occurs once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "crossbial")


class Mutant(NamedTuple):
    file: str                # under src/crossbial/
    old: str                 # must occur exactly once in file
    new: str
    tests: Tuple[str, ...]   # pytest node ids, at least one must fail


LM = "tests/test_linmaps.py::"
ST = "tests/test_structures.py::"
TW = "tests/test_twisting.py::"
VO = "tests/test_verify_once.py::"

MUTANTS = [
    # rebind evaluates a pending map at once
    Mutant("linmaps.py",
           "    if _pending_rows(f) is not None:\n"
           "        return _Pending._diagram(dom, cod, [[f]])\n", "",
           (LM + "test_a_relabelled_pending_map_stays_pending_and_opaque",)),
    # a relabelled pending map lends its rows, on the old strands
    Mutant("linmaps.py",
           "        return _Pending._diagram(dom, cod, [[f]])\n",
           "        return _Pending._diagram(dom, cod, _pending_rows(f))\n",
           (LM + "test_a_relabelled_pending_map_stays_pending_and_opaque",)),
    # a relabelled pending map is unwrapped in a row, as a tensor is
    Mutant("linmaps.py",
           "    return (rows[0] if rows is not None and len(rows) == 1\n"
           "            and len(rows[0]) > 1 else [f])\n",
           "    return rows[0] if rows is not None and len(rows) == 1 "
           "else [f]\n",
           (LM + "test_a_relabelled_pending_map_stays_pending_and_opaque",)),
    # a Structure accepts m=None
    Mutant("structures.py",
           "        if not isinstance(self.m, LinMap):\n"
           "            raise ShapeError(f\"{self.space.name} has no "
           "multiplication\")\n", "",
           ("tests/test_structures.py::"
            "test_a_structure_without_m_is_a_coalgebra_and_nothing_more",)),
    # a cross product's m is built at once
    Mutant("structures.py",
           "    return (b1.m @ b2.m) * (b1.id_map() @ phi21 @ b2.id_map())\n",
           "    m = (b1.m @ b2.m) * (b1.id_map() @ phi21 @ b2.id_map())\n"
           "    m.entries\n"
           "    return m\n",
           (VO + "test_convolution_inverses_build_no_tensor_multiplication",
            "tests/test_twisting.py::test_tensor_coalgebra_is_the_tensor_"
            "structure_without_m")),
    # a convolution solve reads its coalgebra's m, evaluating the flip
    # multiplication of the tensor_structure it solves over
    Mutant("structures.py", "    C, A = coalg.space, alg.space\n",
           "    C, A = coalg.space, alg.space\n    coalg.m.by_col()\n",
           (VO + "test_convolution_inverses_build_no_tensor_multiplication",)),
    # induced_structures returns a pending m_B
    Mutant("datum.py", "        X.m.entries\n", "",
           (LM + "test_the_doubled_product_map_never_builds_the_padded_"
            "permutation",)),
    # a pending map is evaluated on every read, not kept
    Mutant("linmaps.py",
           "        m = run_pipeline(self._rows)\n"
           "        self.entries = m.entries\n"
           "        self._cols, self._ones, self._rows = m._cols, m._ones, "
           "None\n"
           "        return self.entries\n",
           "        return run_pipeline(self._rows).entries\n",
           (LM + "test_a_pending_map_is_evaluated_once_and_kept",)),
    # a pending tensor in a later row is applied left to right
    Mutant("linmaps.py",
           "            for g in (reversed(_row_factors(f)) if f.__class__ "
           "is _Pending\n",
           "            for g in (_row_factors(f) if f.__class__ "
           "is _Pending\n",
           (LM + "test_the_doubled_product_map_never_builds_the_padded_"
            "permutation",)),
    # an evaluated pending map claims to be a 0/1 matrix
    Mutant("linmaps.py",
           "self._cols, self._ones, self._rows = m._cols, m._ones, None\n",
           "self._cols, self._ones, self._rows = m._cols, True, None\n",
           (LM + "test_operator_expressions_match_the_eager_evaluator",)),
    # a pending composite lends all of its rows but the last
    Mutant("linmaps.py",
           "    return rows if rows is not None and len(rows) > 1 "
           "else [[f]]\n",
           "    return rows[:-1] if rows is not None and len(rows) > 1 "
           "else [[f]]\n",
           (LM + "test_operator_expressions_match_the_eager_evaluator",)),
    # a pending map of one row lends it to a composite: a relabel lends
    # its factor, whose strands keep their old names
    Mutant("linmaps.py",
           "    return rows if rows is not None and len(rows) > 1 "
           "else [[f]]\n",
           "    return rows if rows is not None else [[f]]\n",
           (LM + "test_a_relabelled_pending_map_stays_pending_and_opaque",)),
    # compose lends its right operand's rows, so a composite that is also
    # another's input is evaluated twice
    Mutant("linmaps.py",
           "        return _Pending._diagram(f.dom, self.cod, [[f]] + "
           "_lent_rows(self))\n",
           "        return _Pending._diagram(f.dom, self.cod, _lent_rows(f) + "
           "_lent_rows(self))\n",
           (LM + "test_a_composite_read_and_used_as_an_input_is_evaluated_"
            "once",)),
    # compose evaluates two evaluated maps at once
    Mutant("linmaps.py",
           "        return _Pending._diagram(f.dom, self.cod, [[f]] + "
           "_lent_rows(self))\n",
           "        if _pending_rows(f) is None and _pending_rows(self) is "
           "None:\n"
           "            return apply_at(f, self, 0)\n"
           "        return _Pending._diagram(f.dom, self.cod, [[f]] + "
           "_lent_rows(self))\n",
           (LM + "test_a_chain_of_evaluated_maps_is_its_rows",)),
    # LinMap.identity leaves its kernel shape to a scan
    Mutant("linmaps.py", "        f._fn = (range(n), True, True)\n", "",
           (LM + "test_an_identity_carries_its_flag_before_any_read",)),
    # every map built from trusted entries is flagged an identity
    Mutant("linmaps.py",
           "        f._cols = f._fn = None\n        f._ones = ones\n",
           "        f._cols = None\n"
           "        f._fn = (range(dim_of(dom)), True, True)\n"
           "        f._ones = ones\n",
           (LM + "test_the_kept_identity_flag_is_the_scan_on_every_zoo_"
            "factor",)),
    # a 0/1 function that sends two columns to one row is called
    # injective, so the kernel relabels where it must sum
    Mutant("linmaps.py", "                fn = (rows, len(set(rows)) == n,\n",
           "                fn = (rows, True,\n",
           (LM + "test_a_0_1_function_keeps_its_rows_and_whether_it_is_"
            "injective",
            LM + "test_the_kernel_matches_the_general_loop_on_fixed_"
            "factors")),
    # the relabelling push right of other strands (R > 1) reads column
    # b's row unscaled by R
    Mutant("linmaps.py", "rr[row % DR // R]", "rows[row % DR // R]",
           (LM + "test_the_kernel_matches_the_general_loop_on_fixed_"
            "factors",
            LM + "test_the_kernel_matches_the_general_loop")),
    # a 0/1 push that summed is flagged 0/1
    Mutant("linmaps.py", "                           not summed if ones else "
           "None)\n",
           "                           True if ones else None)\n",
           (LM + "test_a_0_1_push_sets_its_flag_from_its_sums",)),
    # C and D swapped where a first row writes an identity factor down
    Mutant("linmaps.py",
           "            out = {(b * C + row, b * D + col): v for b in "
           "range(f.ncols)\n",
           "            out = {(b * D + row, b * C + col): v for b in "
           "range(f.ncols)\n",
           (LM + "test_an_identity_in_a_first_row_is_written_without_its_"
            "columns",)),
    # the generator shortcuts of check_axioms (PR 30): mult-comult seeded
    # under a braiding other than the flip
    Mutant("structures.py",
           "            bp == FLIP if psi is None else psi == flip(s.space, "
           "s.space))\n",
           "            True)\n",
           (ST + "test_a_yetter_drinfeld_braiding_keeps_the_full_mult_comult",
            )),
    # mult-comult seeded when m is not associative
    Mutant("structures.py",
           "        seeded = g is not None and entries[1].ok and (\n",
           "        seeded = g is not None and (\n",
           (ST + "test_a_failed_associativity_keeps_the_full_mult_comult",)),
    # the unit's generator dropped although the unit laws fail
    Mutant("structures.py",
           "            g = _without_unit(g, s.eta if unital else None)\n",
           "            g = _without_unit(g, s.eta)\n",
           (ST + "test_a_failed_unit_law_keeps_the_unit_in_lights_test",)),
    # a failed shortcut gives the entry, with the shortcut's witness
    Mutant("structures.py", "    return compare(axiom, lhs, rhs)\n",
           "    return compare(axiom, *(shortcut or (lhs, rhs)))\n",
           (ST + "test_a_witness_off_the_generators_is_the_full_diagrams_"
            "witness",)),
    # the span is not closed under the generators, so S is no generating
    # set of the search's kind
    Mutant("structures.py", "        while todo and len(pivots) < d:\n",
           "        while False:\n",
           (ST + "test_the_search_finds_the_unit_g_and_x_of_a_radford_"
            "tower",)),
    # `*` checks no strands, so a mismatch raises only at the first read
    Mutant("linmaps.py",
           "        if f.cod != self.dom:\n"
           "            raise ShapeError(\n"
           "                f\"cannot compose: inner boundaries differ \"\n",
           "        if False:\n"
           "            raise ShapeError(\n"
           "                f\"cannot compose: inner boundaries differ \"\n",
           (LM + "test_a_strand_mismatch_raises_at_the_operator",)),
    # verify once down to the solve: _scalar_inverse re-checks the tensor
    # coalgebra its caller has verified, through the checked entry
    Mutant("twisting.py",
           "    return rebind(_convolution_inverse(fp, coalg, k), f.dom, "
           "UNIT)\n",
           "    from .structures import convolution_inverse\n"
           "    return rebind(convolution_inverse(fp, coalg, k), f.dom, "
           "UNIT)\n",
           (VO + "test_no_solve_rechecks_what_its_caller_verified",)),
    # cocycle_inverse returns a certified chi_inv of a host that is no
    # coalgebra
    Mutant("twisting.py",
           "    check_axioms(c.host, \"coalgebra\").require(\"host fails "
           "{}\")\n", "",
           (TW + "test_a_cocycle_inverse_refuses_a_host_that_is_no_"
            "coalgebra",)),
    # pairing_inverse solves over factors it has not checked
    Mutant("twisting.py",
           "        check_axioms(st, \"coalgebra\").require(f\"{tag} fails "
           "{{}}\")\n",
           "        pass\n",
           (TW + "test_a_pairing_inverse_names_the_factor_that_is_no_"
            "coalgebra",)),
    # the public convolution_inverse solves over a coalgebra it has not
    # checked
    Mutant("structures.py",
           "    check_axioms(coalg, \"coalgebra\").require(\"convolution "
           "boundary fails {}\")\n", "",
           (ST + "test_convolution_precondition",)),
    # the induced actions stay pending, so every datum law re-pushes
    # their rows
    Mutant("twisting.py", "    lhd.entries\n    rhd.entries\n", "",
           (TW + "test_the_induced_actions_are_evaluated_before_the_datum_"
            "check",)),
    # the matched pair checks the datum in full again, A's and H^op's
    # laws included, after validate_pairing has checked A and H
    Mutant("twisting.py",
           "    drep = CheckReport(_datum_laws(HopfDatum(A, h_op, "
           "act_l=rhd, act_r=lhd)))\n",
           "    from .datum import check_hopf_datum\n"
           "    drep = check_hopf_datum(HopfDatum(A, h_op, act_l=rhd, "
           "act_r=lhd))\n",
           (VO + "test_matched_pair_checks_each_factor_once",)),
    # the datum's factor laws written out by hand, a second copy of
    # check_axioms that no spy of it sees
    Mutant("datum.py",
           "               for e in (check_axioms(st, \"algebra\").entries\n"
           "                         + check_axioms(st, \"coalgebra\")"
           ".entries[1:])]\n",
           "               for i in [st.id_map()] for e in (\n"
           "                   compare(\"unit-counit\", st.eps * st.eta,\n"
           "                           LinMap.identity(())),\n"
           "                   compare(\"associativity\", st.m * (st.m @ i),"
           "\n"
           "                           st.m * (i @ st.m)),\n"
           "                   compare(\"left-unit\", st.m * (st.eta @ i), "
           "i),\n"
           "                   compare(\"right-unit\", st.m * (i @ st.eta), "
           "i),\n"
           "                   compare(\"coassociativity\", "
           "(st.delta @ i) * st.delta,\n"
           "                           (i @ st.delta) * st.delta),\n"
           "                   compare(\"left-counit\", "
           "(st.eps @ i) * st.delta, i),\n"
           "                   compare(\"right-counit\", "
           "(i @ st.eps) * st.delta, i))]\n",
           (VO + "test_hopf_datum_check_does_not_recheck_its_factors",)),
    # Phi's top half associated as row * acc: each partial composite is
    # one factor of the next, so T is evaluated at its full width
    Mutant("datum.py", "    top = reduce(mul, reversed(inner))\n",
           "    top = reduce(lambda acc, row: row * acc, inner)\n",
           ("tests/test_datum.py::test_the_top_half_is_lent_to_each_push_"
            "and_never_evaluated",)),
    # Cyclo * -1 is the Cyclo itself
    Mutant("scalars.py",
           "            if other == -1:\n"
           "                return -self\n",
           "            if other == -1:\n"
           "                return self\n",
           ("tests/test_scalars.py::test_sums_and_products_over_one_collapse_"
            "to_ints",
            "tests/test_scalars.py::test_the_fast_paths_are_the_generic_"
            "path")),
    # _cyclo takes its gcd only over 1, and so leaves every other value
    # out of lowest terms
    Mutant("scalars.py", "    if den != 1:\n", "    if den == 1:\n",
           ("tests/test_scalars.py::test_the_fast_paths_are_the_generic_"
            "path",)),
    # Cyclo + int moves the constant numerator by the int, not int * den
    Mutant("scalars.py", "self.nums[0] + other * self.den,",
           "self.nums[0] + other,",
           ("tests/test_scalars.py::test_the_fast_paths_are_the_generic_"
            "path",)),
    # a structure keeps mult-comult under any braiding, so a verdict over
    # the flip is read back under a Yetter-Drinfeld provider
    Mutant("structures.py",
           "    key = \"mult-comult\" if psi is None and bp == FLIP else "
           "None\n",
           "    key = \"mult-comult\" if psi is None else None\n",
           (VO + "test_one_structure_is_checked_over_the_flip_and_under_its_"
            "braiding",)),
    # twist reads what c keeps over c's host whatever structure it twists
    Mutant("twisting.py",
           "    on_b = c if c.host is b else TwoCocycle(b, c.chi, "
           "c.chi_inv)\n",
           "    on_b = c\n",
           (VO + "test_twist_decides_the_cocycle_laws_on_the_host_it_"
            "twists",)),
    # a stored chi_inv is kept before its certificate, so it stays kept
    # when the certificate fails
    Mutant("twisting.py",
           "        return _scalar_inverse(self.chi, self._doi[0], "
           "self.chi_inv)\n",
           "        vars(self)[\"_chi_inverse\"] = self.chi_inv\n"
           "        return _scalar_inverse(self.chi, self._doi[0], "
           "self.chi_inv)\n",
           (VO + "test_a_wrong_stored_inverse_is_refused_on_every_call",)),
    # an input's rho-free copy keeps its first stage before the crossed
    # modules are verified, so it stays kept when their check raises
    Mutant("twisting.py",
           "        H, B, C = self.H, self.B, self.C\n",
           "        vars(self)[\"_preconditions\"] = None\n"
           "        H, B, C = self.H, self.B, self.C\n",
           (VO + "test_a_failed_rho_free_stage_is_refused_on_every_call",)),
    # with_rho leaves the new input without the rho-free copy, so each
    # pairing verifies the crossed modules and Z again
    Mutant("twisting.py",
           "        vars(out)[\"_rho_free\"] = self._rho_free\n", "",
           (VO + "test_pairings_made_from_one_input_verify_its_crossed_"
            "modules_once",)),
    # the direct twisted product pairs by rho^- where it pairs by rho, and
    # by rho where it pairs by rho^-
    Mutant("twisting.py",
           "            * (idc @ idh @ idh @ inp.rho @ H.delta @ idc @ idb "
           "@ H.delta\n"
           "               @ rho_inv @ idh @ idh @ idb)\n",
           "            * (idc @ idh @ idh @ rho_inv @ H.delta @ idc @ idb "
           "@ H.delta\n"
           "               @ inp.rho @ idh @ idh @ idb)\n",
           (TW + "test_the_direct_twisted_product_is_the_row_list",)),
    # sop_compose keeps the zeros its sums leave
    Mutant("datum.py",
           "        if summed:\n"
           "            acc = {u: x for u, x in acc.items() if x}\n", "",
           ("tests/test_datum.py::test_sop_compose_is_the_plain_product_in_"
            "values_types_and_order",)),
]


def misplaced(rows=MUTANTS):
    """(index, count) of each row whose old text does not occur exactly
    once in its file."""
    out = []
    for i, m in enumerate(rows):
        with open(os.path.join(PACKAGE, m.file), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            out.append((i, count))
    return out


def run_row(m: Mutant) -> int:
    """pytest's exit code on the row's tests against a mutated copy of
    src/: 1 when a test fails, so the mutant is killed."""
    with tempfile.TemporaryDirectory(prefix="crossbial-mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.dirname(PACKAGE), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "crossbial", m.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
                   PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-p", "_hypothesis_pytestplugin", *m.tests],
            cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.monotonic()
    bad = misplaced()
    for i, count in bad:
        print(f"mutant {i}: old text occurs {count} times in "
              f"{MUTANTS[i].file}")
    if bad:
        return 1
    failed = 0
    for i, m in enumerate(MUTANTS):
        code = run_row(m)
        verdict = {1: "killed", 0: "SURVIVED"}.get(
            code, f"ERROR (pytest exit {code})")
        failed += code != 1
        print(f"mutant {i} ({m.file}): {verdict}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
