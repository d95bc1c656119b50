# Fails when a library header under src/ is included by nothing but its
# own .cc: no other library file, example, bench, perfbench probe or fuzz
# target. Such a header is an API that only its implementation and its
# unit tests reach, so it is either dead or waiting for a caller. Tests
# deliberately do not count as callers. Driven as `cmake -P` by the
# orphan_headers ctest entry.
#
# Required -D variables:
#   SOURCE_DIR - the repository root

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "check_orphan_headers.cmake: SOURCE_DIR is required")
endif()

set(callers)
foreach(dir src examples bench perfbench fuzz)
  file(GLOB_RECURSE found
    ${SOURCE_DIR}/${dir}/*.h ${SOURCE_DIR}/${dir}/*.cc
    ${SOURCE_DIR}/${dir}/*.cpp)
  list(APPEND callers ${found})
endforeach()

# One "<includer>|<included path>" entry per quoted #include.
set(edges)
foreach(file ${callers})
  file(STRINGS ${file} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line ${lines})
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
           included "${line}")
    list(APPEND edges "${file}|${included}")
  endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE ${SOURCE_DIR}/src ${SOURCE_DIR}/src/*.h)
set(orphans)
foreach(header ${headers})
  string(REGEX REPLACE "\\.h$" ".cc" own_source "${SOURCE_DIR}/src/${header}")
  set(used FALSE)
  foreach(edge ${edges})
    string(FIND "${edge}" "|" bar)
    string(SUBSTRING "${edge}" 0 ${bar} includer)
    math(EXPR start "${bar} + 1")
    string(SUBSTRING "${edge}" ${start} -1 included)
    if(included STREQUAL header AND NOT includer STREQUAL own_source)
      set(used TRUE)
      break()
    endif()
  endforeach()
  if(NOT used)
    list(APPEND orphans ${header})
  endif()
endforeach()

list(LENGTH headers header_count)
if(orphans)
  string(REPLACE ";" "\n  " listing "${orphans}")
  message(FATAL_ERROR
    "Headers under src/ included by no file in src/ examples/ bench/ "
    "perfbench/ fuzz/ other than their own .cc:\n  ${listing}\n"
    "Delete the module or give it a caller.")
endif()
message(STATUS "All ${header_count} src/ headers have a caller")
