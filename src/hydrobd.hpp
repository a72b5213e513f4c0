// Umbrella header: the full public API of the hydrobd library.
//
//   #include "hydrobd.hpp"
//
// pulls in every module.  Individual headers remain includable on their own
// for faster builds.
#pragma once

#include "obs/drift.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#include "common/aligned.hpp"
#include "common/cell_list.hpp"
#include "common/error.hpp"
#include "common/neighbor_list.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/vec3.hpp"

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matfun.hpp"

#include "fft/fft.hpp"

#include "sparse/bcsr3.hpp"

#include "ewald/beenakker.hpp"
#include "ewald/rpy.hpp"

#include "pme/bspline.hpp"
#include "pme/influence.hpp"
#include "pme/interp_matrix.hpp"
#include "pme/lagrange.hpp"
#include "pme/params.hpp"
#include "pme/pme_operator.hpp"
#include "pme/realspace.hpp"
#include "pme/validate.hpp"

#include "core/brownian.hpp"
#include "core/checkpoint.hpp"
#include "core/chebyshev.hpp"
#include "core/diffusion.hpp"
#include "core/forces.hpp"
#include "core/krylov.hpp"
#include "core/rdf.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "core/trajectory.hpp"

#include "hybrid/calibrate.hpp"
#include "hybrid/perf_model.hpp"
#include "hybrid/scheduler.hpp"
