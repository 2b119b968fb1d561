#ifndef PERFBENCH_TRACED_PIPELINE_H
#define PERFBENCH_TRACED_PIPELINE_H

/**
 * @file
 * Tracing from outside the library: a decorator Pass that wraps every
 * pass of the default pipeline in a span, and a decorator
 * DecompositionStrategy that times each call translation makes into
 * the decomposition engine. Both only delegate, so a traced compile
 * produces the same output as an untraced one.
 */

#include <memory>
#include <string>

#include "compiler/pass_manager.h"
#include "compiler/pipeline.h"
#include "trace.h"

namespace perfbench {

/** Prefix of the registered tracing strategies ("traced-nuop", ...). */
extern const char* const kTracedPrefix;

/**
 * Register "traced-<name>" for every registered decomposition engine.
 * Each wraps a fresh instance of the engine and records spans into
 * `recorder` (which must outlive every compile that uses them):
 * "nuop.canon" around profileTarget, "nuop.key" around cache-key
 * builds, and "nuop.profile.bfgs" / "nuop.profile.analytic" around
 * computeProfile, split by the engine that produced the profile.
 * Call once per process.
 */
void registerTracedStrategies(SpanRecorder& recorder);

/**
 * The default pipeline for `options`, in defaultPipeline's pass
 * order, each pass built by its make*Pass factory and wrapped in a
 * span named after the pass. Throws on a pass name this benchmark
 * does not know, so a new default pass cannot go untraced.
 */
qiset::PassManager tracedPipeline(const qiset::CompileOptions& options,
                                  SpanRecorder& recorder);

/**
 * Compile `app` through `pipeline` (from tracedPipeline) inside a
 * "compile" span with id `compile`, with the decomposition engine
 * swapped for its tracing wrapper. Same output as compileCircuit.
 */
qiset::CompileResult
compileTraced(const qiset::PassManager& pipeline, const qiset::Circuit& app,
              const qiset::Device& device, const qiset::GateSet& gate_set,
              qiset::ProfileCache& cache, qiset::CompileOptions options,
              SpanRecorder& recorder, uint64_t compile);

} // namespace perfbench

#endif // PERFBENCH_TRACED_PIPELINE_H
