// shared-mutable-state fixtures: mutable static-storage data, with
// sanctioned/suppressed decoys that must NOT be findings. Line numbers
// are pinned in tests/analyze/analyze_driver.py.
namespace hybridmr::sim {

static int bad_counter = 0;      // line 6: namespace-scope mutable static
inline double bad_tuning = 1.5;  // line 7: inline variable (header global)
thread_local int bad_tls = 0;    // line 8: thread_local is still shared

static const int kFineConst = 3;           // clean: immutable
static constexpr double kFineConstexpr{2}; // clean: immutable
inline constexpr int kFineInline = 9;      // clean: immutable

// hmr-shared(process-global): sanctioned site — no finding.
static int sanctioned_counter = 0;

// sim-lint: allow(shared-mutable-state)
static int suppressed_counter = 0;  // suppressed decoy

int bump() {
  static int bad_call_count = 0;  // line 21: function-local mutable static
  return ++bad_call_count + bad_counter + bad_tls + sanctioned_counter +
         suppressed_counter + kFineConst + kFineInline;
}

}  // namespace hybridmr::sim
