"""A standing mutation table for the certificates, the internal-defect checks and the shortcuts.

Each entry is (file under src/padicspec, exact old text, replacement,
pytest node ids).  A mutant is killed when every one of its node ids
fails on a copy of src/ with that one replacement made.  The table
follows the code: tests/test_tooling.py checks that every old text
occurs exactly once under src/padicspec.  A change to a certificate or
to an internal-defect check adds its mutants here.

Run it from anywhere with

    python tests/mutants.py

It copies src/ into a temporary directory, first runs every listed node
id on the unmutated copy (they must pass), then applies each mutant to
a fresh copy and runs its node ids in a child pytest with PYTHONPATH
on the copy.  It prints one line per mutant and exits 1 if any mutant
survives or the unmutated run fails.  Standard library only.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "padicspec"

_SPECTRAL = "tests/test_spectral.py::"
_CLI = "tests/test_cli.py::"
_MATRIX = "tests/test_matrix.py::"
_PADIC = "tests/test_padic.py::"
_FIELD = "tests/test_finite_field.py::"
_MALFORMED = _PADIC + "test_value_constructors_refuse_malformed_fields"
_PERIOD = _SPECTRAL + "test_every_spectral_entry_point_refuses_a_period_below_one"
_DEFECTS = [
    _CLI + "test_pass_through_defect_is_a_document[wrong index]",
    _CLI + "test_pass_through_defect_is_a_document[point off by p]",
]

# (file, old text, replacement, node ids that must all fail)
MUTANTS = (
    # _verify_tree, the one certificate of every spectral command
    ("spectral.py", "if square != rows:", "if False and square != rows:", [
        _SPECTRAL + "test_verify_tree_checks_idempotency_where_orthogonality_is_one_sided",
        _SPECTRAL + "test_verify_decomposition_refuses_a_non_idempotent_projector[1]",
        _SPECTRAL + "test_verify_decomposition_refuses_a_non_idempotent_projector[2]",
    ]),
    ("spectral.py", "if not all(map(ops.rows_are_zero, overlaps)):",
     "if False and not all(map(ops.rows_are_zero, overlaps)):", [
        _SPECTRAL + "test_verify_measure_catches_a_duplicated_node",
        _SPECTRAL + "test_verify_decomposition_refuses_a_one_sided_overlap[1]",
        _SPECTRAL + "test_verify_decomposition_refuses_a_one_sided_overlap[2]",
    ]),
    ("spectral.py", "if _res_sum(list(by_parent.values()), ops) != ident:",
     "if False and _res_sum(list(by_parent.values()), ops) != ident:", [
        _SPECTRAL + "test_verify_measure_catches_a_dropped_node",
        _SPECTRAL + "test_verify_tree_catches_a_dropped_deepest_node_over_a_degree_two_ring",
        _CLI + "test_spectral_runs_the_tree_certificate",
    ]),
    ("spectral.py", "if any(by_parent.get(address) != rows for address, rows in parents):",
     "if False and any(by_parent.get(address) != rows for address, rows in parents):", [
        _SPECTRAL + "test_verify_measure_catches_a_child_moved_to_another_parent",
        _SPECTRAL + "test_verify_tree_catches_a_level_zero_node_listed_as_its_children",
    ]),
    ("spectral.py", "if tuple([weighted[r : r + n] for r in range(0, n * n, n)]) != level.digit:",
     "if False and tuple([weighted[r : r + n] for r in range(0, n * n, n)]) != level.digit:", [
        _SPECTRAL + "test_verify_measure_catches_swapped_siblings",
        _SPECTRAL + "test_verify_tree_catches_swapped_siblings_over_a_degree_two_ring",
        *_DEFECTS,
    ]),
    ("spectral.py", "_verify_tree(levels, ambient)", "(levels, ambient)", [
        _CLI + "test_spectral_runs_the_tree_certificate",
        *_DEFECTS,
    ]),
    # _read_off, the digits and levels that no node splits: the index of a node at its
    # first unit entry, the sum of the nodes of each index, and the three checks of
    # the candidate (the tail mod p before any lift, sigma^N-fixed, commuting with the tail)
    ("spectral.py", "index = ambient.reduce(ambient.mul(image, ambient.inv_unit(node[r][c])))",
     "index = ambient.reduce(image)", [
        _SPECTRAL + "test_resolutions_are_one_more_than_the_splitting_levels",
    ]),
    ("spectral.py", "for c, e in enumerate(row) if ambient.is_unit(e))",
     "for c, e in enumerate(row) if not ambient.is_zero(e))", [
        _SPECTRAL + "test_pass_through_declines_a_node_without_a_unit_entry_or_an_eigenvalue",
    ]),
    ("spectral.py",
     "by_index[index] = ambient.rows_add(by_index[index], node) if index in by_index else node",
     "by_index.setdefault(index, node)", [
        _SPECTRAL + "test_resolutions_are_one_more_than_the_splitting_levels",
    ]),
    ("spectral.py",
     "if not ambient.rows_are_zero(ambient.map_coords(defect, ops.p.__rmod__)):",
     "if False:", [
        _SPECTRAL + "test_a_level_that_splits_one_node_but_not_another_is_resolved",
        _SPECTRAL + "test_resolutions_are_one_more_than_the_splitting_levels",
        _SPECTRAL + "test_pass_through_declines_a_node_without_a_unit_entry_or_an_eigenvalue",
    ]),
    ("spectral.py", "if _res_matpow(limit, ops.p**period, ops) != limit:", "if False:", [
        _SPECTRAL + "test_read_off_refuses_a_candidate_that_sigma_moves",
    ]),
    ("spectral.py", "if ops.matmul(limit, tail) != ops.matmul(tail, limit):", "if False:", [
        _SPECTRAL + "test_read_off_refuses_a_candidate_that_does_not_commute_with_the_tail",
    ]),
    # sigma^N-fixedness: the points over a larger ring, and the digits once the tree fails
    ("spectral.py",
     "if ops.degree != period and any(ops.pow(lam, ops.p**period) != lam for lam in lifts):",
     "if False and any(ops.pow(lam, ops.p**period) != lam for lam in lifts):", [
        _SPECTRAL + "test_spectral_refusals_keep_their_exact_text[companion-over-degree-2]",
        _SPECTRAL + "test_spectral_refusals_follow_their_route[companion-over-degree-2]",
    ]),
    ("spectral.py", "if image != digit:", "if False and image != digit:", [
        _SPECTRAL + "test_spectral_refusals_keep_their_exact_text[companion-over-degree-2]",
        _SPECTRAL + "test_spectral_refusals_keep_their_exact_text[jordan-block]",
        _SPECTRAL + "test_spectral_refusals_keep_their_exact_text[companion-over-Zp]",
        _SPECTRAL + "test_spectral_refusals_keep_their_exact_text[no-root-at-p-1009]",
        _SPECTRAL + "test_spectral_refusals_keep_their_exact_text[period-3-over-degree-2-unfixed]",
        _CLI + "test_spectral_rejects_non_fixed",
    ]),
    # a resolution without points reaches the certificate, not an IndexError
    ("spectral.py", "if len(lifts) <= 1:", "if len(lifts) == 1:", [
        _SPECTRAL + "test_spectral_refusals_follow_their_route[no-root-at-p-1009]",
    ]),
    # the Lagrange projectors: distinct points have unit differences, and one inversion
    # of their product gives every denominator's inverse through the prefix products
    ("spectral.py", "if not ops.is_unit(denominator):", "if False and not ops.is_unit(denominator):", [
        _SPECTRAL + "test_lagrange_refuses_two_points_with_one_reduction",
    ]),
    ("spectral.py", "ops.mul(inverse, prefixes[k])", "ops.mul(inverse, prefixes[k - 1])", [
        _SPECTRAL + "test_spectral_work_bound[4]",
        _SPECTRAL + "test_resolve_inverts_once_per_resolution",
    ]),
    # the packed extension product folds every entry mod f at once, each table term counts
    ("padic.py", "for high, row in zip(parts[degree:], table):",
     "for high, row in zip(parts[degree:-1], table):", [
        _FIELD + "test_ext_matmul_and_dot_match_the_schoolbook_product",
        _SPECTRAL + "test_verify_tree_catches_swapped_siblings_over_a_degree_two_ring",
        "tests/test_golden_cli.py::test_cli_matches_golden_digests[large-p-spectral]",
    ]),
    # the modulus search: a root-free candidate is kept only once Rabin certifies it
    ("finite_field.py", "if is_irreducible(candidate, p):", "if True:", [
        _FIELD + "test_modulus_skips_a_root_free_reducible_quartic",
    ]),
    # the one Teichmuller lift: its closed form is checked to be fixed
    ("padic.py", "if ops.pow(w, q) != w:", "if False and ops.pow(w, q) != w:", [
        _PADIC + "test_teichmuller_residue_checks_that_its_point_is_fixed[1]",
        _PADIC + "test_teichmuller_residue_checks_that_its_point_is_fixed[2]",
    ]),
    # the eigenvalue search: the Hessenberg column update and the root-scan crossover
    ("matrix.py", "row[r] = add(row[r], mul(u, row[i]))", "row[r] = row[r]", [
        _MATRIX + "test_hessenberg_charpoly_matches_berkowitz",
        _MATRIX + "test_hessenberg_charpoly_on_swaps_and_empty_columns[5-1]",
        _MATRIX + "test_hessenberg_charpoly_on_swaps_and_empty_columns[3-2]",
    ]),
    ("spectral.py", "if ops.p**ops.degree <= SCAN_PER_DEGREE * len(rows):",
     "if ops.p**ops.degree < SCAN_PER_DEGREE * len(rows):", [
        _SPECTRAL + "test_root_finder_switches_at_the_crossover[2-8-2-_scan_roots]",
    ]),
    # the determinant: a row swap negates it
    ("matrix.py", "det = ops.neg(det)", "det = det", [
        _MATRIX + "test_elimination_determinant_matches_berkowitz",
    ]),
    # the flag table: a str value starting with '-' goes to argparse
    ("cli.py", 'elif value[:1] == "-":', "elif False:", [
        _CLI + "test_table_parser_declines_other_spellings[str-with-dash]",
        _CLI + "test_table_parser_agrees_with_argparse",
    ]),
    # the field checks of the value types' constructors
    ("padic.py", "if not (0 < self.unit < self.ctx.modulus):", "if False:", [
        _MALFORMED + "[unit-past-the-window]",
        _MALFORMED + "[negative-unit]",
    ]),
    ("padic.py", "if self.unit % self.ctx.p == 0:", "if False:", [
        _MALFORMED + "[unit-divisible-by-p]",
        _PADIC + "test_canonical_form_enforced",
    ]),
    ("padic.py", "if not is_prime(self.p):", "if False:", [
        _MALFORMED + "[composite-p]",
        _PADIC + "test_context_rejects_composite_prime",
    ]),
    ("matrix.py", "if n == 0 or any(len(r) != n for r in self.rows):", "if n == 0:", [
        _MALFORMED + "[non-square-matrix]",
    ]),
    # the one element constructor of every extension ring, F_{p^N} at m = 1 included
    ("finite_field.py", "if len(self.coords) != ring.degree:", "if False:", [
        _MALFORMED + "[fq-coordinates-too-short]",
        _MALFORMED + "[ext-coordinates-too-long]",
    ]),
    ("finite_field.py", '_setattr(self, "coords", tuple([c % q for c in coords]))',
     '_setattr(self, "coords", tuple(coords))', [
        _FIELD + "test_element_constructor_reduces_its_coordinates",
    ]),
    # the sigma limit's Newton phase: its step bound is tight, and hitting it is refused
    ("spectral.py", "for _ in range((ops.m - 1).bit_length()):",
     "for _ in range((ops.m - 1).bit_length() - 1):", [
        _SPECTRAL + "test_sigma_limit_matches_oracle_on_base_inputs",
        _SPECTRAL + "test_sigma_limit_matches_oracle_on_unipotent_inputs[1]",
        _SPECTRAL + "test_hermite_digits_work_bound[3-8-8]",
    ]),
    ("spectral.py",
     "raise RuntimeError(f\"Newton's method on X^{q} = X did not converge (internal defect)\")",
     "return x", [
        _SPECTRAL + "test_sigma_limit_refuses_a_newton_phase_that_does_not_converge",
    ]),
    # lift_idempotent's three checks of the limit
    ("spectral.py", 'if limit is None:\n        raise RuntimeError("idempotent lift',
     'if False:\n        raise RuntimeError("idempotent lift', [
        _SPECTRAL + "test_lift_idempotent_checks_the_limit_it_is_given[no-limit]",
    ]),
    ("spectral.py", "if ops.matmul(limit, limit) != limit:",
     "if False and ops.matmul(limit, limit) != limit:", [
        _SPECTRAL + "test_lift_idempotent_checks_the_limit_it_is_given[not-idempotent]",
    ]),
    ("spectral.py",
     "if not ops.rows_are_zero(ops.map_coords(ops.rows_sub(limit, rows), ops.p.__rmod__)):",
     "if False:", [
        _SPECTRAL + "test_lift_idempotent_checks_the_limit_it_is_given[other-reduction]",
    ]),
    # jordan_decompose's kill bound, the least k with p^k >= n m, is not one step too long
    ("spectral.py", "if ops.p**kill >= a.n * ops.m:", "if ops.p**(kill + 1) >= a.n * ops.m:", [
        _SPECTRAL + "test_jordan_kill_bound_covers_every_n",
        _SPECTRAL + "test_jordan_matches_the_scan_oracle",
        "tests/test_acceptance.py::test_jordan_decomposition",
    ]),
    # the root finders and unit inversion of finite_field
    ("finite_field.py", "if any(len(h) != 2 for h in factors):", "if False:", [
        _FIELD + "test_poly_roots_refuses_a_factor_it_could_not_split",
    ]),
    ("finite_field.py", "if len(f) > 1:\n        raise RuntimeError(", "if False:\n        raise RuntimeError(", [
        _SPECTRAL + "test_spectral_refusals_follow_their_route[companion-over-Zp]",
    ]),
    ("finite_field.py", 'raise RuntimeError("unit inversion failed to converge (internal defect)")',
     "return b", [
        _FIELD + "test_unit_inversion_refuses_a_newton_phase_that_does_not_converge",
    ]),
    # Newton's start is a^-1 mod p by Fermat, a^(p^N - 2)
    ("finite_field.py", "b = self.pow(a, self.p**self.degree - 2)", "b = self.pow(a, self.p**self.degree - 1)", [
        _FIELD + "test_field_axioms_on_random_triples",
    ]),
    # spectrum_diameter's cross-checks: the operator norm and the translation law
    ("spectral.py", "if lam_val != a.valuation:", "if False and lam_val != a.valuation:", [
        _CLI + "test_internal_defect_is_a_document",
    ]),
    ("spectral.py", "elif val != diam_val:", "elif False:", [
        _SPECTRAL + "test_spectrum_diameter_checks_the_translation_law[diameter]",
    ]),
    ("spectral.py", "if val < resolved:", "if False:", [
        _SPECTRAL + "test_spectrum_diameter_checks_the_translation_law[singleton]",
    ]),
    # one ring per matrix: mixed entries and a promotion to another p or m are refused
    ("matrix.py", "if entry.ring is not ring and entry.ring != ring:", "if False:", [
        _MATRIX + "test_a_matrix_over_mixed_rings_is_refused",
        _MALFORMED + "[mixed-entry-types]",
    ]),
    ("matrix.py", "if ring.ctx != own:", "if False:", [
        _MATRIX + "test_a_matrix_over_mixed_rings_is_refused",
    ]),
    ("spectral.py", "if ring is not ctx:", "if False:", [
        _SPECTRAL + "test_measure_refuses_an_extension_ring[1]",
        _SPECTRAL + "test_measure_refuses_an_extension_ring[2]",
    ]),
    # the renderer's (v, u) of a residue: the valuation step and the zero entry
    ("cli.py", "return v, r // p**v", "return v + 1, r // p**v", [
        _CLI + "test_residue_rows_render_as_their_documents[base-3]",
        _CLI + "test_residue_rows_render_as_their_documents[degree-2-101]",
    ]),
    ("cli.py", "if r and not r % p else 0", "if not r % p else 0", [
        _CLI + "test_residue_rows_render_as_their_documents[base-2]",
        _CLI + "test_residue_rows_render_as_their_documents[degree-3-5]",
    ]),
    # a sigma period or period bound below 1 is refused at every spectral entry point
    ("spectral.py", "    _check_period(period)\n    ring = a.ring", "    ring = a.ring", [
        _PERIOD + "[hermite-0]",
        _PERIOD + "[hermite--1]",
        _PERIOD + "[spectrum-0]",
    ]),
    ("spectral.py", "    _check_period(period)\n    levels, level, resolved", "    levels, level, resolved", [
        _PERIOD + "[spectral-0]",
        _PERIOD + "[spectral--1]",
    ]),
    ("padic.py", "if period_bound < 1:", "if False:", [
        _PERIOD + "[jordan-0]",
        _PERIOD + "[jordan--1]",
        _PERIOD + "[classify-0]",
        _PERIOD + "[classify--1]",
    ]),
    # scan_orbit, the one sigma-orbit walk: a cycle of length period_bound is in bound,
    # zero rows end the walk, and the budget leaves period_bound steps past the pre-period
    ("padic.py", "if k - entry > period_bound:", "if k - entry >= period_bound:", [
        "tests/test_unramified.py::test_classify_ext_scalar_orbits",
        _SPECTRAL + "test_classify_matrix_matches_the_sigma_window_walk",
    ]),
    ("padic.py", "if ops.rows_are_zero(cur):", "if False:", [
        _PADIC + "test_classify_zero_and_p_are_nilpotent",
        _SPECTRAL + "test_classify_matrix_matches_the_sigma_window_walk",
    ]),
    ("padic.py", "budget = max(ops.m * period_bound + 4, pre_period) + period_bound",
     "budget = max(ops.m * period_bound + 4, pre_period)", [
        _SPECTRAL + "test_classify_matrix_matches_the_sigma_window_walk",
        _SPECTRAL + "test_jordan_kill_count_is_the_classify_step[companion-64-2-1]",
    ]),
    # padic._dot_units, the one relative truncated sum: a term m digits from the sum is
    # dropped or replaces it without p^gap, and a sum cancelling past the window is zero
    ("padic.py", "if gap >= m:", "if gap > m:", [
        _PADIC + "test_a_term_m_or_more_digits_from_the_sum_forms_no_power_of_p[2-1]",
        _PADIC + "test_a_term_m_or_more_digits_from_the_sum_forms_no_power_of_p[5-4]",
    ]),
    ("padic.py", "if t >= m:  # cancellation beyond the m-digit window", "if False:", [
        _PADIC + "test_dot_adds_from_the_left",
        _SPECTRAL + "test_measure_and_integral_match_the_object_level_oracle",
        "tests/test_golden_cli.py::test_cli_matches_golden_digests[measure-tree]",
    ]),
    # only a base matrix can have a negative valuation and no residues
    ("matrix.py", "if self.ring is self.ctx and not self.is_integral:", "if False:", [
        _MATRIX + "test_extension_residues_compute_no_valuation",
    ]),
    # the package's lazy names: a public name of matrix missing from the table
    ("__init__.py", '"matrix ProjectionCertificate UMatrix', '"matrix ProjectionCertificate', [
        "tests/test_tooling.py::test_the_public_names_are_the_pinned_ones",
    ]),
)


def _copy_src(workdir: pathlib.Path) -> pathlib.Path:
    target = workdir / "src"
    shutil.copytree(ROOT / "src", target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


def _failed_ids(src: pathlib.Path, node_ids: list) -> set:
    """The node ids among node_ids that fail or error in a child pytest with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in result.stdout.splitlines():
        verdict, _, rest = line.partition(" ")
        if verdict in ("FAILED", "ERROR"):
            failed.update(node for node in node_ids if rest.startswith(node))
    if result.returncode not in (0, 1):  # usage error, collection error, interrupted
        failed.add("<pytest exit %d>" % result.returncode)
    return failed


def main() -> int:
    start = time.perf_counter()
    every_id = sorted({node for *_, nodes in MUTANTS for node in nodes})
    with tempfile.TemporaryDirectory() as workdir:
        src = _copy_src(pathlib.Path(workdir) / "clean")
        failed = _failed_ids(src, every_id)
    if failed:
        print("unmutated source fails:", *sorted(failed), sep="\n  ")
        return 1
    survivors = 0
    for filename, old, new, nodes in MUTANTS:
        with tempfile.TemporaryDirectory() as workdir:
            src = _copy_src(pathlib.Path(workdir))
            path = src / "padicspec" / filename
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE    {filename}: {old!r} occurs {text.count(old)} times")
                survivors += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            failed = _failed_ids(src, nodes)
            passed = [node for node in nodes if node not in failed]
        survivors += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed  '} {filename}: {old!r}")
        for node in passed:
            print(f"           still passes: {node}")
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
