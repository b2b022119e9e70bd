#include "obs/obs.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace blap::obs {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kRadio: return "radio";
    case Layer::kScheduler: return "sched";
    case Layer::kController: return "ctrl";
    case Layer::kLmp: return "lmp";
    case Layer::kHci: return "hci";
    case Layer::kHost: return "host";
    case Layer::kSecurity: return "sec";
    case Layer::kAttack: return "attack";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

std::uint32_t TraceRecorder::intern_device(std::string_view name) {
  for (std::uint32_t i = 0; i < devices_.size(); ++i)
    if (devices_[i] == name) return i;
  devices_.emplace_back(name);
  return static_cast<std::uint32_t>(devices_.size() - 1);
}

void TraceRecorder::push(TraceEvent event) {
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::instant(SimTime ts, std::uint32_t device, Layer layer,
                            std::string name, std::string detail) {
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = next_seq_++;
  ev.phase = 'i';
  ev.layer = layer;
  ev.device = device;
  ev.name = std::move(name);
  ev.args = std::move(detail);
  push(std::move(ev));
}

std::uint64_t TraceRecorder::begin_span(SimTime ts, std::uint32_t device, Layer layer,
                                        std::string name, std::string detail) {
  const std::uint64_t id = next_span_++;
  open_[id] = OpenSpan{layer, device, name};
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = next_seq_++;
  ev.phase = 'b';
  ev.layer = layer;
  ev.device = device;
  ev.span_id = id;
  ev.name = std::move(name);
  ev.args = std::move(detail);
  push(std::move(ev));
  return id;
}

void TraceRecorder::end_span(SimTime ts, std::uint64_t id, std::string detail) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // never opened, or already closed
  TraceEvent ev;
  ev.ts = ts;
  ev.seq = next_seq_++;
  ev.phase = 'e';
  ev.layer = it->second.layer;
  ev.device = it->second.device;
  ev.span_id = id;
  ev.name = it->second.name;
  ev.args = std::move(detail);
  open_.erase(it);
  push(std::move(ev));
}

namespace {

/// Events sorted by (ts, seq): insertion order except where a span end was
/// recorded ahead of virtual time (paging-race windows).
std::vector<const TraceEvent*> time_ordered(const std::deque<TraceEvent>& events) {
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const TraceEvent& ev : events) sorted.push_back(&ev);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->ts != b->ts) return a->ts < b->ts;
                     return a->seq < b->seq;
                   });
  return sorted;
}

}  // namespace

std::string TraceRecorder::to_chrome_json() const {
  std::string out;
  out.reserve(256 + events_.size() * 96);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out +=
      "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"blap-sim (virtual time)\"}}";
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    out += strfmt(
        ",\n  {\"ph\": \"M\", \"pid\": 0, \"tid\": %u, \"name\": \"thread_name\", "
        "\"args\": {\"name\": \"%s\"}}",
        i, json_escape(devices_[i]).c_str());
  }

  // Pair span begin/end events retained in the ring.
  std::unordered_map<std::uint64_t, const TraceEvent*> ends;
  for (const TraceEvent& ev : events_)
    if (ev.phase == 'e') ends[ev.span_id] = &ev;

  for (const TraceEvent* ev : time_ordered(events_)) {
    if (ev->phase == 'e') {
      continue;  // consumed by its begin below (orphans add nothing useful)
    }
    out += ",\n  {";
    out += strfmt("\"name\": \"%s\", \"cat\": \"%s\", ", json_escape(ev->name).c_str(),
                  to_string(ev->layer));
    std::string args;
    if (!ev->args.empty())
      args += strfmt("\"detail\": \"%s\"", json_escape(ev->args).c_str());
    if (ev->phase == 'i') {
      out += "\"ph\": \"i\", \"s\": \"t\", ";
    } else {
      const auto end_it = ends.find(ev->span_id);
      const SimTime end_ts = end_it != ends.end() ? end_it->second->ts : ev->ts;
      out += strfmt("\"ph\": \"X\", \"dur\": %llu, ",
                    static_cast<unsigned long long>(end_ts - ev->ts));
      if (end_it != ends.end()) {
        if (!end_it->second->args.empty()) {
          if (!args.empty()) args += ", ";
          args += strfmt("\"end\": \"%s\"", json_escape(end_it->second->args).c_str());
        }
      } else {
        if (!args.empty()) args += ", ";
        args += "\"unclosed\": true";
      }
    }
    out += strfmt("\"pid\": 0, \"tid\": %u, \"ts\": %llu", ev->device,
                  static_cast<unsigned long long>(ev->ts));
    if (!args.empty()) out += ", \"args\": {" + args + "}";
    out += "}";
  }
  out += strfmt("\n], \"otherData\": {\"dropped_events\": %llu}}\n",
                static_cast<unsigned long long>(dropped_));
  return out;
}

std::string TraceRecorder::to_text() const {
  std::string out;
  out.reserve(events_.size() * 64);
  if (dropped_ > 0)
    out += strfmt("... %llu earlier event(s) dropped (ring capacity %zu)\n",
                  static_cast<unsigned long long>(dropped_), capacity_);
  for (const TraceEvent* ev : time_ordered(events_)) {
    const char* mark = ev->phase == 'b' ? ">" : (ev->phase == 'e' ? "<" : "|");
    const char* device =
        ev->device < devices_.size() ? devices_[ev->device].c_str() : "?";
    out += strfmt("[%12llu us] %-14s %-6s %s %s",
                  static_cast<unsigned long long>(ev->ts), device,
                  to_string(ev->layer), mark, ev->name.c_str());
    if (!ev->args.empty()) {
      out += "  ";
      out += ev->args;
    }
    out += "\n";
  }
  return out;
}

}  // namespace blap::obs
