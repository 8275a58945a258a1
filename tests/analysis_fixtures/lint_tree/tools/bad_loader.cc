// Lint fixture: a tool that maps a v2.2 graph itself instead of loading it
// through pipeline::GraphSource. Exercised by tests/analysis_tools_test.py;
// never compiled.
#include <string>

namespace spammass {

bool LoadsDirectly(const std::string& path) {
  return graph::ReadBinaryMmap(path).ok();
}

}  // namespace spammass
