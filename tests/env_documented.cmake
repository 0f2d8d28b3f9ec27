# Fails unless README.md or DESIGN.md names every FLEXTM_* environment
# variable that src/ reads: a knob nobody can find documented is one
# nobody sets on purpose.
#
#   cmake -DROOT=<repository root> -P env_documented.cmake
#
# A variable counts as read when its name is the string literal passed
# first to env::raw, env::choiceOr or env::u64Or.
file(GLOB_RECURSE sources "${ROOT}/src/*.cc" "${ROOT}/src/*.hh")
set(vars "")
foreach(f IN LISTS sources)
    file(READ "${f}" text)
    string(REGEX MATCHALL
           "env::(raw|choiceOr|u64Or)\\([ \t\r\n]*\"FLEXTM_[A-Z0-9_]+\""
           calls "${text}")
    foreach(c IN LISTS calls)
        string(REGEX MATCH "FLEXTM_[A-Z0-9_]+" v "${c}")
        list(APPEND vars "${v}")
    endforeach()
endforeach()
list(REMOVE_DUPLICATES vars)
list(SORT vars)
if (NOT vars)
    message(FATAL_ERROR "no env::raw/choiceOr/u64Or reads under ${ROOT}/src")
endif()

file(READ "${ROOT}/README.md" readme)
file(READ "${ROOT}/DESIGN.md" design)
set(missing "")
foreach(v IN LISTS vars)
    string(REGEX MATCH "${v}([^A-Z0-9_]|$)" in_readme "${readme}")
    string(REGEX MATCH "${v}([^A-Z0-9_]|$)" in_design "${design}")
    if (NOT in_readme AND NOT in_design)
        list(APPEND missing "${v}")
    endif()
endforeach()
if (missing)
    message(FATAL_ERROR
            "read by src/ but named in neither README.md nor DESIGN.md: "
            "${missing}")
endif()
message(STATUS "documented: ${vars}")
