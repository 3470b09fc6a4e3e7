/**
 * @file
 * In-memory span log for the traced benchmark run: one span per call
 * the benchmark makes into a layer (program build, Simulator
 * construction, Simulator::run, ParallelRunner::run, ResultCache
 * open/flush), written out as JSON when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

class SpanLog
{
  public:
    using clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0; ///< seconds since the log was created
        double end = 0.0;
    };

    /** RAII span; closes on destruction. Inert when the log is off. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name) : log_(log)
        {
            if (log_)
                id_ = log_->open(std::move(name));
        }
        ~Scope()
        {
            if (log_)
                log_->close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int id_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the part covered by direct children. */
    double
    selfSeconds(std::size_t i) const
    {
        double self = spans_[i].end - spans_[i].start;
        for (const Span &s : spans_)
            if (s.parent == static_cast<int>(i))
                self -= s.end - s.start;
        return self;
    }

    /** Total duration of every span named @p name. */
    double
    totalSeconds(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.end - s.start;
        return sum;
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"parent\": %d, \"name\": "
                         "\"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"self_s\": %.9f}%s\n",
                         i, s.parent, s.name.c_str(), s.start, s.end,
                         selfSeconds(i),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    int
    open(std::string name)
    {
        spans_.push_back({std::move(name), open_, now(), 0.0});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    close(int id)
    {
        spans_[id].end = now();
        open_ = spans_[id].parent;
    }

    double
    now() const
    {
        return std::chrono::duration<double>(clock::now() - t0_)
            .count();
    }

    clock::time_point t0_ = clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
