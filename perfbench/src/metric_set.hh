/**
 * @file
 * Named metrics with units, printed as the benchmark's JSON result.
 */

#ifndef PERFBENCH_METRIC_SET_HH
#define PERFBENCH_METRIC_SET_HH

#include <cstdio>
#include <map>
#include <string>
#include <utility>

namespace perfbench
{

/** Ordered name -> (value, unit) map. */
class MetricSet
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        m_[name] = {value, unit};
    }

    double value(const std::string &name) const
    {
        return m_.at(name).first;
    }

    /** {"name": {"value": v, "unit": "u"}, ...}, full precision. */
    std::string
    toJson() const
    {
        std::string out = "{";
        char buf[64];
        for (const auto &[name, vu] : m_) {
            if (out.size() > 1)
                out += ", ";
            std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
            out += "\"" + name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + vu.second + "\"}";
        }
        return out + "}";
    }

  private:
    std::map<std::string, std::pair<double, std::string>> m_;
};

} // namespace perfbench

#endif // PERFBENCH_METRIC_SET_HH
