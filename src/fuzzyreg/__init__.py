"""Matrix regularization of fuzzy surfaces.

Turn Fourier data on a strip into finite Hermitian matrices, blend distinct
cross-section topologies through a string vertex, and check the
semiclassical behavior of the result.

Nothing is re-exported; import from the modules.  The supported API, by module:
  profiles.Profile, profiles.ComplexProfile, profiles.AffineProfile, profiles.PolyProfile,
    profiles.SplineProfile, profiles.CallableProfile, profiles.profile_from_dict
  fourier.FourierFunction, fourier.MatrixFourierFunction, fourier.mul, fourier.poisson_bracket
  regularize.make_grid, regularize.FuzzyMatrix, regularize.FuzzyMatrix.from_diagonals,
    regularize.FuzzySpace, regularize.regularize_scalar, regularize.regularize_matrix,
    regularize.regularize_schedule, regularize.regularize_space, regularize.check_regularizable,
    regularize.product, regularize.commutator, regularize.lincomb, regularize.within_border_norm
  spaces.CurveSpec, spaces.build_generalized_cylinder, spaces.build_immersed_cylinder,
    spaces.build_circle_to_eight, spaces.DoubleCylinderSpec, spaces.build_double_cylinder,
    spaces.build_clifford_torus, spaces.GraphVertexSpec, spaces.build_graph_vertex
  the (name, generators, grid) each builder of a smooth preset regularizes:
    spaces.generalized_cylinder_generators, spaces.immersed_cylinder_generators,
    spaces.circle_to_eight_generators, spaces.double_cylinder_generators,
    interpolate.string_vertex_generators
  interpolate.VertexParams, interpolate.make_profile, interpolate.build_string_vertex
  transforms.interlace, transforms.block_transform, transforms.matrix_poly_transform,
    transforms.diagonalize_coordinate
  verify.check_product_convergence, verify.check_poisson_convergence,
    verify.check_commutator_decay, verify.sample_on_grid, verify.sample_on_grids
  surface.export_classical_surface, matrixio.write_matrix, matrixio.read_matrix,
    render.render_dot_matrix, cli.run_cli, cli.main, errors.FuzzyRegError
Research hooks with no caller yet, kept for open ROADMAP items:
  interpolate.mirror_concat (items 2-4), interpolate.close_caps (item 3), and for item 6
  spaces.interlaced_double_cylinder_function, verify.semiclassical_residual,
  fourier.MatrixFourierFunction.matmul, fourier.MatrixFourierFunction.conjugate_transpose
Harness-bound, resolved by name by the benchmark tracer (fzbench/tracing.py) or
called by its workloads (fzbench/workloads.py):
  verify.check_norm_convergence, verify.matrix_fn_commutator_sup,
  fourier.FourierFunction.eval, fourier.FourierFunction.to_dict
Every other public name has a caller in the package (tests/test_api_surface.py).
"""
