/// @file
/// Plain C++ versions of each served kernel's arithmetic, and the Table 1
/// quality metrics, written independently of the library so the benchmark
/// can check what the service returned.  Inputs are re-created through the
/// application's own launch plan (`LaunchPlan::bind_inputs`), so the
/// reference sees exactly the request's buffers and scalars.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "bench.h"
#include "core/variants.h"
#include "exec/launch.h"

namespace perfbench {

namespace exec = paraprox::exec;

namespace {

/// Buffers and scalars of one request, re-created through the plan.
class Inputs {
  public:
    Inputs(const PreparedKernel& kernel, std::uint64_t seed)
    {
        kernel.setup->plan.bind_inputs(seed, args_, storage_);
    }

    std::vector<float>
    floats(const std::string& name) const
    {
        return buffer(name).to_floats();
    }

    std::vector<std::int32_t>
    ints(const std::string& name) const
    {
        return buffer(name).to_ints();
    }

    std::size_t
    size(const std::string& name) const
    {
        return buffer(name).size();
    }

    float
    f(const std::string& name) const
    {
        return scalar(name).f;
    }

    int
    i(const std::string& name) const
    {
        return scalar(name).i;
    }

  private:
    const exec::Buffer&
    buffer(const std::string& name) const
    {
        const exec::Buffer* found = args_.find_buffer(name);
        if (!found)
            throw std::runtime_error("reference: no buffer `" + name + "`");
        return *found;
    }

    const paraprox::vm::Value&
    scalar(const std::string& name) const
    {
        const paraprox::vm::Value* found = args_.find_scalar(name);
        if (!found)
            throw std::runtime_error("reference: no scalar `" + name + "`");
        return *found;
    }

    exec::ArgPack args_;
    std::vector<std::unique_ptr<exec::Buffer>> storage_;
};

float
cnd(float d)
{
    const float k = 1.0f / (1.0f + 0.2316419f * std::fabs(d));
    const float poly =
        k * (0.31938153f +
             k * (-0.356563782f +
                  k * (1.781477937f + k * (-1.821255978f + k * 1.330274429f))));
    float c = 1.0f - 0.39894228f * std::exp(-0.5f * d * d) * poly;
    if (d < 0.0f)
        c = 1.0f - c;
    return c;
}

std::vector<float>
blackscholes(const Inputs& in)
{
    const auto s = in.floats("sp");
    const auto x = in.floats("xp");
    const auto t = in.floats("tp");
    const float r = in.f("r");
    const float v = in.f("v");
    std::vector<float> out(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const float sq = std::sqrt(t[i]);
        const float d1 =
            (std::log(s[i] / x[i]) + (r + 0.5f * v * v) * t[i]) / (v * sq);
        const float d2 = d1 - v * sq;
        out[i] = s[i] * cnd(d1) - x[i] * std::exp(-(r * t[i])) * cnd(d2);
    }
    return out;
}

float
moro_inv_cnd(float p)
{
    const float a1 = 2.50662823884f, a2 = -18.61500062529f,
                a3 = 41.39119773534f, a4 = -25.44106049637f;
    const float b1 = -8.4735109309f, b2 = 23.08336743743f,
                b3 = -21.06224101826f, b4 = 3.13082909833f;
    const float c1 = 0.337475482272615f, c2 = 0.976169019091719f,
                c3 = 0.160797971491821f, c4 = 0.0276438810333863f,
                c5 = 0.0038405729373609f, c6 = 0.0003951896511919f,
                c7 = 0.0000321767881768f, c8 = 0.0000002888167364f,
                c9 = 0.0000003960315187f;
    const float y = p - 0.5f;
    float z;
    if (std::fabs(y) < 0.42f) {
        z = y * y;
        z = y * (((a4 * z + a3) * z + a2) * z + a1) /
            ((((b4 * z + b3) * z + b2) * z + b1) * z + 1.0f);
    } else {
        z = y > 0.0f ? std::log(-std::log(1.0f - p))
                     : std::log(-std::log(p));
        const float poly =
            c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * (c6 + z * (c7 +
                 z * (c8 + z * c9)))))));
        z = y < 0.0f ? -poly : poly;
    }
    return z;
}

std::vector<float>
quasirandom(const Inputs& in)
{
    const auto u = in.floats("u");
    std::vector<float> out(u.size());
    for (std::size_t i = 0; i < u.size(); ++i)
        out[i] = moro_inv_cnd(u[i]);
    return out;
}

std::vector<float>
boxmuller(const Inputs& in)
{
    const auto idx = in.ints("idx");
    const auto u = in.floats("u");
    std::vector<float> out(2 * idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        const float u1 = u[2 * static_cast<std::size_t>(idx[i])];
        const float u2 = u[2 * static_cast<std::size_t>(idx[i]) + 1];
        const float radius = std::sqrt(-2.0f * std::log(u1));
        out[2 * i] = radius * std::cos(6.28318530718f * u2);
        out[2 * i + 1] = radius * std::sin(6.28318530718f * u2);
    }
    return out;
}

/// Interior points of a w-wide image inside a @p border-pixel frame;
/// the frame of the output stays zero, as the kernels never write it.
template <typename Body>
std::vector<float>
interior(std::size_t size, int w, Body body, int border = 1)
{
    const int h = static_cast<int>(size) / w;
    std::vector<float> out(size, 0.0f);
    for (int y = border; y < h - border; ++y)
        for (int x = border; x < w - border; ++x)
            out[static_cast<std::size_t>(y) * w + x] = body(x, y);
    return out;
}

std::vector<float>
gaussian(const Inputs& in)
{
    const auto p = in.floats("in");
    const int w = in.i("w");
    auto at = [&](int x, int y) { return p[static_cast<std::size_t>(y) * w + x]; };
    return interior(p.size(), w, [&](int x, int y) {
        return 0.0625f * at(x - 1, y - 1) + 0.125f * at(x, y - 1) +
               0.0625f * at(x + 1, y - 1) + 0.125f * at(x - 1, y) +
               0.25f * at(x, y) + 0.125f * at(x + 1, y) +
               0.0625f * at(x - 1, y + 1) + 0.125f * at(x, y + 1) +
               0.0625f * at(x + 1, y + 1);
    });
}

std::vector<float>
mean_filter(const Inputs& in)
{
    const auto p = in.floats("in");
    const int w = in.i("w");
    auto at = [&](int x, int y) { return p[static_cast<std::size_t>(y) * w + x]; };
    return interior(p.size(), w, [&](int x, int y) {
        return (at(x - 1, y - 1) + at(x, y - 1) + at(x + 1, y - 1) +
                at(x - 1, y) + at(x, y) + at(x + 1, y) + at(x - 1, y + 1) +
                at(x, y + 1) + at(x + 1, y + 1)) *
               0.111111111f;
    });
}

std::vector<float>
hotspot(const Inputs& in)
{
    const auto t = in.floats("in");
    const auto power = in.floats("power");
    const int w = in.i("w");
    const float cap = in.f("cap");
    const float ambient = in.f("ambient");
    auto at = [&](int x, int y) { return t[static_cast<std::size_t>(y) * w + x]; };
    return interior(t.size(), w, [&](int x, int y) {
        const float center = at(x, y);
        const float delta = at(x, y - 1) + at(x, y + 1) + at(x - 1, y) +
                            at(x + 1, y) - 4.0f * center;
        return center +
               cap * (power[static_cast<std::size_t>(y) * w + x] +
                      0.25f * delta + 0.05f * (ambient - center));
    });
}

std::vector<float>
denoise(const Inputs& in)
{
    const auto p = in.floats("in");
    const int w = in.i("w");
    const float inv_h2 = in.f("inv_h2");
    auto at = [&](int x, int y) { return p[static_cast<std::size_t>(y) * w + x]; };
    return interior(
        p.size(), w,
        [&](int x, int y) {
            const float center = at(x, y);
            float acc = 0.0f;
            float wsum = 0.0f;
            for (int dy = -3; dy < 4; ++dy) {
                for (int dx = -3; dx < 4; ++dx) {
                    const float pix = at(x + dx, y + dy);
                    const float d = pix - center;
                    const float weight = std::exp(-(d * d * inv_h2));
                    acc += weight * pix;
                    wsum += weight;
                }
            }
            return acc / wsum;
        },
        3);
}

std::vector<float>
matmul(const Inputs& in)
{
    const auto a = in.floats("a");
    const auto b = in.floats("b");
    const int n = in.i("n");
    std::vector<float> out(static_cast<std::size_t>(n) * n);
    for (int row = 0; row < n; ++row) {
        for (int col = 0; col < n; ++col) {
            float acc = 0.0f;
            for (int k = 0; k < n; ++k)
                acc += a[static_cast<std::size_t>(row) * n + k] *
                       b[static_cast<std::size_t>(k) * n + col];
            out[static_cast<std::size_t>(row) * n + col] = acc;
        }
    }
    return out;
}

std::vector<float>
naive_bayes(const Inputs& in)
{
    const auto x = in.floats("x");
    const auto labels = in.ints("labels");
    const int features = in.i("features");
    const int bins = in.i("bins");
    std::vector<float> out(in.size("out"), 0.0f);
    for (std::size_t idx = 0; idx < labels.size(); ++idx) {
        const int cls = labels[idx];
        for (int f = 0; f < features; ++f) {
            int bin = static_cast<int>(
                x[idx * features + f] * static_cast<float>(bins));
            bin = std::min(bin, bins - 1);
            out[static_cast<std::size_t>((cls * features + f) * bins + bin)] +=
                1.0f;
        }
    }
    return out;
}

}  // namespace

std::vector<float>
reference_output(const PreparedKernel& kernel, std::uint64_t seed)
{
    static const std::map<std::string,
                          std::function<std::vector<float>(const Inputs&)>>
        kernels = {
            {"BlackScholes", blackscholes},
            {"Quasirandom Generator", quasirandom},
            {"BoxMuller", boxmuller},
            {"Gaussian Filter", gaussian},
            {"Mean Filter", mean_filter},
            {"HotSpot", hotspot},
            {"Matrix Multiply", matmul},
            {"Image Denoising", denoise},
            {"Naive Bayes", naive_bayes},
        };
    const auto it = kernels.find(kernel.spec.app);
    if (it == kernels.end())
        throw std::runtime_error("no reference for `" + kernel.spec.app + "`");
    return it->second(Inputs(kernel, seed));
}

double
reference_quality(runtime::Metric metric, const std::vector<float>& exact,
                  const std::vector<float>& approx)
{
    if (exact.size() != approx.size())
        return 0.0;
    if (exact.empty())
        return 100.0;
    double err = 0.0;
    double ref = 0.0;
    switch (metric) {
      case runtime::Metric::L1Norm:
        for (std::size_t i = 0; i < exact.size(); ++i) {
            ref += std::fabs(static_cast<double>(exact[i]));
            err += std::isfinite(approx[i])
                       ? std::fabs(static_cast<double>(exact[i]) - approx[i])
                       : std::fabs(static_cast<double>(exact[i]));
        }
        return ref > 0.0 ? std::max(0.0, 100.0 * (1.0 - err / ref))
                         : (err == 0.0 ? 100.0 : 0.0);
      case runtime::Metric::L2Norm:
        for (std::size_t i = 0; i < exact.size(); ++i) {
            const double e = exact[i];
            const double d = std::isfinite(approx[i]) ? e - approx[i] : e;
            ref += e * e;
            err += d * d;
        }
        return ref > 0.0
                   ? std::max(0.0, 100.0 * (1.0 - std::sqrt(err / ref)))
                   : (err == 0.0 ? 100.0 : 0.0);
      case runtime::Metric::MeanRelativeError:
        for (std::size_t i = 0; i < exact.size(); ++i) {
            const double e = exact[i];
            err += std::isfinite(approx[i])
                       ? std::fabs(e - approx[i]) /
                             std::max(1e-6, std::fabs(e))
                       : 1.0;
        }
        return std::max(
            0.0, 100.0 * (1.0 - err / static_cast<double>(exact.size())));
    }
    return 0.0;
}

double
max_scaled_error(const std::vector<float>& want,
                 const std::vector<float>& got)
{
    if (want.size() != got.size())
        return INFINITY;
    double worst = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const double w = want[i];
        const double g = got[i];
        if (!std::isfinite(g))
            return INFINITY;
        worst = std::max(worst, std::fabs(g - w) / std::max(1.0, std::fabs(w)));
    }
    return worst;
}

}  // namespace perfbench
