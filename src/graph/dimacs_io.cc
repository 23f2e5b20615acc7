#include "graph/dimacs_io.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>

namespace kspdg {

Result<Graph> ReadDimacs(std::istream& in, bool directed) {
  std::string line;
  size_t num_vertices = 0;
  size_t declared_arcs = 0;
  bool have_header = false;
  Graph graph;
  // Maps ordered (min,max) pair -> edge id, to merge the two arcs of a road.
  std::unordered_map<uint64_t, EdgeId> edge_of_pair;

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'c') continue;
    if (tag == 'p') {
      std::string kind;
      ls >> kind >> num_vertices >> declared_arcs;
      if (!ls || kind != "sp") {
        return Status::IOError("malformed DIMACS problem line: " + line);
      }
      graph = Graph(num_vertices, directed);
      edge_of_pair.reserve(declared_arcs);
      have_header = true;
      continue;
    }
    if (tag == 'a') {
      if (!have_header) {
        return Status::IOError("DIMACS arc line before problem line");
      }
      uint64_t u1 = 0, v1 = 0;
      long long w = 0;
      ls >> u1 >> v1 >> w;
      if (!ls || u1 == 0 || v1 == 0 || u1 > num_vertices ||
          v1 > num_vertices) {
        return Status::IOError("malformed DIMACS arc line: " + line);
      }
      if (w <= 0) w = 1;  // DIMACS files occasionally contain zero weights.
      VertexId u = static_cast<VertexId>(u1 - 1);
      VertexId v = static_cast<VertexId>(v1 - 1);
      if (u == v) continue;  // drop self loops
      VertexId lo = u < v ? u : v;
      VertexId hi = u < v ? v : u;
      auto [it, inserted] = edge_of_pair.try_emplace(PairKey(lo, hi));
      VfragCount vf = static_cast<VfragCount>(w);
      if (inserted) {
        // First direction seen; initialise both directions with this weight
        // (overwritten below if the opposite arc appears).
        it->second = graph.AddEdge(u, v, vf, vf);
      } else if (directed) {
        // Second direction of an existing road: fix up the stored direction.
        // AddEdge stored (first_u -> first_v) as forward; this arc is the
        // opposite direction iff u != EdgeU.
        EdgeId e = it->second;
        WeightUpdate upd{e, graph.ForwardWeight(e), graph.BackwardWeight(e)};
        if (graph.EdgeU(e) == u) {
          upd.new_forward = static_cast<Weight>(w);
        } else {
          upd.new_backward = static_cast<Weight>(w);
        }
        graph.SetWeight(upd);
        // Note: vfrag counts follow the first-seen weight for both
        // directions; DIMACS road files are weight-symmetric in practice.
      }
      continue;
    }
    return Status::IOError(std::string("unknown DIMACS line tag: ") + tag);
  }
  if (!have_header) return Status::IOError("missing DIMACS problem line");
  return graph;
}

Result<Graph> ReadDimacsFile(const std::string& path, bool directed) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ReadDimacs(in, directed);
}

Status WriteDimacs(const Graph& g, std::ostream& out) {
  out << "c generated by kspdg\n";
  out << "p sp " << g.NumVertices() << ' ' << 2 * g.NumEdges() << '\n';
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    VertexId u = g.EdgeU(e), v = g.EdgeV(e);
    out << "a " << (u + 1) << ' ' << (v + 1) << ' '
        << static_cast<long long>(std::llround(g.ForwardWeight(e))) << '\n';
    out << "a " << (v + 1) << ' ' << (u + 1) << ' '
        << static_cast<long long>(std::llround(g.BackwardWeight(e))) << '\n';
  }
  if (!out) return Status::IOError("write failure");
  return Status::OK();
}

}  // namespace kspdg
