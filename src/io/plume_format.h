//===- io/plume_format.h - Plume-style CSV history format ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Plume-style flat CSV history format (one operation per row, grouped
/// into transactions by a session/transaction id pair), of the shape used
/// by the text logs of the Plume/PolySI tool family:
///
/// \code
///   # header comments allowed
///   <session>,<txn>,<r|w>,<key>,<value>
///   <session>,<txn>,abort
/// \endcode
///
/// Rows of one transaction must be contiguous; transactions of a session
/// appear in session order. parseHistory("plume", ...)
/// (io/sharded_ingest.h) reads it; the grammar lives in
/// io/stream_parser.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_PLUME_FORMAT_H
#define AWDIT_IO_PLUME_FORMAT_H

#include "history/history.h"

#include <string>

namespace awdit {

/// Serializes \p H in the Plume-style CSV format.
std::string writePlumeHistory(const History &H);

} // namespace awdit

#endif // AWDIT_IO_PLUME_FORMAT_H
