#include "traced_pipeline.h"

#include <stdexcept>

#include "compiler/passes.h"
#include "nuop/decomposition_strategy.h"

namespace perfbench {

using namespace qiset;

const char* const kTracedPrefix = "traced-";

namespace {

class TracedPass : public Pass
{
  public:
    TracedPass(std::unique_ptr<Pass> inner, SpanRecorder& recorder)
        : inner_(std::move(inner)), recorder_(recorder),
          span_name_(recorder.nameId(inner_->name()))
    {
    }

    std::string name() const override { return inner_->name(); }

    void run(CompilationContext& context) override
    {
        ScopedSpan span(recorder_, span_name_);
        inner_->run(context);
    }

  private:
    std::unique_ptr<Pass> inner_;
    SpanRecorder& recorder_;
    uint32_t span_name_;
};

class TracedStrategy : public DecompositionStrategy
{
  public:
    TracedStrategy(std::unique_ptr<DecompositionStrategy> inner,
                   SpanRecorder& recorder)
        : inner_(std::move(inner)), recorder_(recorder),
          canon_(recorder.nameId("nuop.canon")),
          key_(recorder.nameId("nuop.key")),
          profile_(recorder.nameId("nuop.profile")),
          bfgs_(recorder.nameId("nuop.profile.bfgs")),
          analytic_(recorder.nameId("nuop.profile.analytic"))
    {
    }

    // The engine's own name: profile-cache files stamped by a traced
    // compile stay loadable by an untraced one.
    std::string name() const override { return inner_->name(); }

    bool canonicalizesTargets() const override
    {
        return inner_->canonicalizesTargets();
    }

    Matrix profileTarget(const Matrix& target) const override
    {
        ScopedSpan span(recorder_, canon_);
        return inner_->profileTarget(target);
    }

    std::string cacheKey(const Matrix& target,
                         const GateSpec& spec) const override
    {
        ScopedSpan span(recorder_, key_);
        return inner_->cacheKey(target, spec);
    }

    void cacheKeyInto(std::string& out, const Matrix& target,
                      const GateSpec& spec) const override
    {
        ScopedSpan span(recorder_, key_);
        inner_->cacheKeyInto(out, target, spec);
    }

    GateProfile computeProfile(const Matrix& target, const GateSpec& spec,
                               const NuOpDecomposer& decomposer)
        const override
    {
        ScopedSpan span(recorder_, profile_);
        GateProfile profile =
            inner_->computeProfile(target, spec, decomposer);
        span.renameTo(profile.engine == "kak" ? analytic_ : bfgs_);
        return profile;
    }

  private:
    std::unique_ptr<DecompositionStrategy> inner_;
    SpanRecorder& recorder_;
    uint32_t canon_, key_, profile_, bfgs_, analytic_;
};

std::unique_ptr<Pass>
makePass(const std::string& name, const CompileOptions& options)
{
    if (name == "mapping")
        return makeMappingPass();
    if (name == "routing")
        return makeRoutingPass(options.routing);
    if (name == "consolidation")
        return makeConsolidationPass();
    if (name == "translation")
        return makeTranslationPass();
    if (name == "scheduling")
        return makeSchedulingPass();
    if (name == "crosstalk")
        return makeCrosstalkPass(options.crosstalk_inflation);
    if (name == "noise-annotation")
        return makeNoiseAnnotationPass();
    throw std::runtime_error("perfbench has no factory for pass '" + name +
                             "'");
}

} // namespace

void
registerTracedStrategies(SpanRecorder& recorder)
{
    for (const std::string& base : decompositionStrategyNames()) {
        if (base.rfind(kTracedPrefix, 0) == 0)
            continue;
        bool added = registerDecompositionStrategy(
            kTracedPrefix + base, [base, &recorder] {
                return std::make_unique<TracedStrategy>(
                    makeDecompositionStrategy(base), recorder);
            });
        // A second registration would leave the first recorder wired in.
        if (!added)
            throw std::logic_error("traced strategies registered twice");
    }
}

PassManager
tracedPipeline(const CompileOptions& options, SpanRecorder& recorder)
{
    PassManager manager;
    for (const std::string& name : defaultPipeline(options).passNames())
        manager.append(std::make_unique<TracedPass>(makePass(name, options),
                                                    recorder));
    return manager;
}

CompileResult
compileTraced(const PassManager& pipeline, const Circuit& app,
              const Device& device, const GateSet& gate_set,
              ProfileCache& cache, CompileOptions options,
              SpanRecorder& recorder, uint64_t compile)
{
    options.decomposition = kTracedPrefix + options.decomposition;
    CompilationContext context(app, device, gate_set, std::move(options),
                               cache);
    {
        ScopedSpan span(recorder, recorder.nameId("compile"), compile);
        pipeline.run(context);
    }
    return context.takeResult();
}

} // namespace perfbench
